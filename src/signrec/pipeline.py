"""End-to-end extraction: recordings in, per-frame feature samples out.

Left-handed recordings are mirrored before processing so every sample is
analyzed in a right-handed canonical frame. A recording is read one frame
at a time: loading checks its files, and segmentation decodes (and
mirrors) each frame as it reaches it. Extracted features are cached on disk
as `<key>.npz`, one record per sequence, where the key hashes everything
extraction reads: the settings, the skin pixel lists and the recording's
`dataio.RECORDING_FILES`; it holds the feature matrix only. Only a record's
own key rewrites it, so those of other settings or earlier recordings stay
until the directory is removed. Below `extract_corpus`, which checks each
manifest entry against its meta.txt, only frames, poses and feature
matrices pass: the entry alone names a sample's signer and label.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import os
from pathlib import Path

from .config import Config, ExtractConfig
from .dataio import (META_FILE, RECORDING_FILES, SKIN_FILES, DatasetManifest, LoadError,
                     load_sequence, mirror_sequence, parse_pixel_list, read_meta)
from .features import FeatureSample, assemble, load_sample, save_sample
from .segmentation import HIST_BINS, SequenceSegmenter, SkinHistogram

log = logging.getLogger(__name__)

# Part of every cache key: bump it when cached samples change meaning, as
# when an extraction constant outside `ExtractConfig` (a threshold, bin count
# or tracker default in `segmentation` or `tracking`) changes value.
CACHE_FORMAT = 2

# bytes read at a time when hashing a recording
_HASH_CHUNK = 1 << 16


def map_ordered(worker, tasks, jobs):
    """Run tasks, possibly in parallel, yielding results in task order as
    each becomes available."""
    if jobs > 1 and len(tasks) > 1:
        # imported here: a serial run need not pay its resident memory
        import multiprocessing
        with multiprocessing.Pool(min(jobs, len(tasks))) as pool:
            yield from pool.imap(worker, tasks)
    else:
        yield from map(worker, tasks)


def _read_skin_lists(root):
    """The bytes of the corpus's skin pixel lists, by file name."""
    return {name: (Path(root) / name).read_bytes() for name in SKIN_FILES}


def _skin_model(root, skin_lists) -> SkinHistogram:
    """The general skin model; a skin list with no rows raises LoadError."""
    pixels = []
    for name in SKIN_FILES:
        try:
            pixels.append(parse_pixel_list(skin_lists[name].decode()))
        except ValueError as exc:  # also a UnicodeDecodeError
            raise LoadError(f"{Path(root) / name}: {exc}") from None
    if not len(pixels[0]):
        raise LoadError(f"{Path(root) / SKIN_FILES[0]}: no skin pixels")
    return SkinHistogram.from_pixels(*pixels, bins=HIST_BINS)


def general_skin_model(corpus_dir) -> SkinHistogram:
    return _skin_model(corpus_dir, _read_skin_lists(corpus_dir))


def load_right_handed(seq_dir):
    """The recording in `seq_dir`, mirrored if it is left-handed."""
    seq = load_sequence(seq_dir)
    return mirror_sequence(seq) if seq.handedness == "left" else seq


def extract_sequence(seq_dir, general_model, cfg: Config):
    """The feature matrix of the recording in `seq_dir`."""
    seq = load_right_handed(seq_dir)
    return assemble(seq, SequenceSegmenter(general_model, cfg).run(seq), cfg)


def _corpus_digest(skin_lists, cfg: ExtractConfig):
    """Hash of what every sequence's extraction shares: the cache format,
    the extraction settings and the skin pixel lists."""
    digest = hashlib.sha256(f"format={CACHE_FORMAT};".encode())
    for field in dataclasses.fields(ExtractConfig):
        digest.update(f"{field.name}={getattr(cfg, field.name)!r};".encode())
    for name in SKIN_FILES:
        digest.update(name.encode())
        digest.update(skin_lists[name])
    return digest


def _sequence_key(seq_dir, corpus_digest) -> str:
    """The corpus digest extended by the name and bytes of each of the
    `RECORDING_FILES`, in name order. Files are read through one
    `_HASH_CHUNK` buffer: a stream holds a whole recording."""
    digest = corpus_digest.copy()
    buffer = memoryview(bytearray(_HASH_CHUNK))
    for name in RECORDING_FILES:
        digest.update(name.encode())
        try:
            with open(os.path.join(seq_dir, name), "rb", buffering=0) as f:
                while size := f.readinto(buffer):
                    digest.update(buffer[:size])
        except FileNotFoundError:
            raise LoadError(f"{os.path.join(seq_dir, name)}: missing") from None
    return digest.hexdigest()


def _extract_one(args):
    seq_dir, general_model, cfg = args
    return extract_sequence(seq_dir, general_model, cfg)


def extract_corpus(manifest_path, cfg: Config, cache_dir, jobs=None):
    """Extract every manifest entry through the feature cache in `cache_dir`,
    reusing each record that loads and writing one for each miss.

    Returns a list of (entry, FeatureSample) in manifest order, each sample
    named by its entry. An entry that disagrees with its meta.txt raises
    LoadError.
    """
    manifest_path = Path(manifest_path)
    manifest = DatasetManifest.load(manifest_path)
    root = manifest_path.parent
    for entry in manifest.entries:
        listed = (entry.signer_id, entry.sign_label, entry.handedness)
        stored = read_meta(root / entry.path)[:3]
        if stored != listed:
            raise LoadError(f"{manifest_path}: entry {entry.path!r} lists {listed}, "
                            f"but {root / entry.path / META_FILE} holds {stored}")
    # read once: hashed into the cache keys, parsed only if something misses
    skin_lists = _read_skin_lists(root)

    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    corpus_digest = _corpus_digest(skin_lists, cfg)
    records = {}
    results = {}    # feature matrices by entry path
    for entry in manifest.entries:
        path = records[entry.path] = cache_dir / (
            _sequence_key(root / entry.path, corpus_digest) + ".npz")
        try:
            # a hit: a record of that name loads
            if path.exists():
                results[entry.path] = load_sample(path)
        except LoadError as exc:
            log.info("re-extracting: %s", exc)

    pending = [e for e in manifest.entries if e.path not in results]
    if pending:
        general_model = _skin_model(root, skin_lists)
        tasks = [(str(root / e.path), general_model, cfg) for e in pending]
        # each entry is cached as it arrives, so a failure keeps the ones before it
        for frames, entry in zip(map_ordered(_extract_one, tasks, jobs or cfg.jobs), pending):
            results[entry.path] = frames
            save_sample(frames, records[entry.path])
        log.info("extracted %d sequences (%d cached)", len(pending),
                 len(manifest.entries) - len(pending))
    return [(entry, FeatureSample(results[entry.path], entry.sign_label, entry.signer_id))
            for entry in manifest.entries]
