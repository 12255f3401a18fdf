"""End-to-end extraction: recordings in, per-frame feature samples out.

Left-handed recordings are mirrored before processing so every sample is
analyzed in a right-handed canonical frame. Extracted features are cached
on disk, one record per sequence tagged with a hash of everything extraction
reads, so repeated evaluations skip the expensive stages.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import multiprocessing
import os
from pathlib import Path

from .config import Config, ExtractConfig
from .dataio import (SKIN_FILES, DatasetManifest, LoadError, load_sequence, mirror_sequence,
                     parse_pixel_list, read_meta)
from .features import FeatureSample, assemble, load_sample, save_sample
from .segmentation import SequenceSegmenter, SkinHistogram

log = logging.getLogger(__name__)

# Part of every cache key: bump it when cached samples change meaning.
CACHE_FORMAT = 2


def map_ordered(worker, tasks, jobs):
    """Run tasks, possibly in parallel, yielding results in task order as
    each becomes available."""
    if jobs > 1 and len(tasks) > 1:
        with multiprocessing.Pool(min(jobs, len(tasks))) as pool:
            yield from pool.imap(worker, tasks)
    else:
        yield from map(worker, tasks)


def _read_skin_lists(root):
    """The bytes of the corpus's skin pixel lists, by file name."""
    return {name: (Path(root) / name).read_bytes() for name in SKIN_FILES}


def _skin_model(root, skin_lists, cfg: Config) -> SkinHistogram:
    pixels = []
    for name in SKIN_FILES:
        try:
            pixels.append(parse_pixel_list(skin_lists[name].decode()))
        except ValueError as exc:  # also a UnicodeDecodeError
            raise LoadError(f"{Path(root) / name}: {exc}") from None
    return SkinHistogram.from_pixels(*pixels, bins=cfg.hist_bins)


def general_skin_model(corpus_dir, cfg: Config) -> SkinHistogram:
    return _skin_model(corpus_dir, _read_skin_lists(corpus_dir), cfg)


def extract_sequence(seq_dir, general_model, cfg: Config, debug_dir=None) -> FeatureSample:
    seq = load_sequence(seq_dir)
    if seq.handedness == "left":
        seq = mirror_sequence(seq)
    segmenter = SequenceSegmenter(general_model, cfg)
    result = segmenter.run(seq, debug_dir=debug_dir)
    return assemble(seq, result, cfg)


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
    """The corpus digest extended by the name and bytes of every recording
    file (ground truth excluded), in name order."""
    digest = corpus_digest.copy()
    for name in sorted(os.listdir(seq_dir)):
        if name.startswith("gt_"):
            continue
        digest.update(name.encode())
        with open(os.path.join(seq_dir, name), "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def _extract_one(args):
    seq_dir, general_model, cfg = args
    return extract_sequence(seq_dir, general_model, cfg)


def _cache_name(entry_path):
    return entry_path.replace("/", "__") + ".npz"


def extract_corpus(manifest_path, cfg: Config, cache_dir=None, jobs=None):
    """Extract every manifest entry, reusing cached feature records.

    Returns a list of (entry, FeatureSample) in manifest order. An entry that
    disagrees with its meta.txt raises LoadError.
    """
    manifest_path = Path(manifest_path)
    manifest = DatasetManifest.load(manifest_path)
    root = manifest_path.parent
    for entry in manifest.entries:
        listed = (entry.signer_id, entry.sign_label, entry.handedness)
        stored = read_meta(root / entry.path)[:3]
        if stored != listed:
            raise LoadError(f"{manifest_path}: entry {entry.path!r} lists {listed}, "
                            f"but {root / entry.path / 'meta.txt'} holds {stored}")
    # read once: hashed into the cache keys, parsed only if something misses
    skin_lists = _read_skin_lists(root)

    keys = {}
    results: dict[str, FeatureSample] = {}
    if cache_dir is not None:
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        corpus_digest = _corpus_digest(skin_lists, cfg)
        for entry in manifest.entries:
            key = keys[entry.path] = _sequence_key(root / entry.path, corpus_digest)
            path = cache_dir / _cache_name(entry.path)
            try:
                # a hit: the record loads and was stored under the current key
                if path.exists():
                    results[entry.path] = load_sample(path, key)
            except LoadError as exc:
                log.info("re-extracting: %s", exc)

    pending = [e for e in manifest.entries if e.path not in results]
    if pending:
        general_model = _skin_model(root, skin_lists, cfg)
        tasks = [(str(root / e.path), general_model, cfg) for e in pending]
        # each entry is cached as it arrives, so a failure keeps the ones before it
        for sample, entry in zip(map_ordered(_extract_one, tasks, jobs or cfg.jobs), pending):
            results[entry.path] = sample
            if cache_dir is not None:
                save_sample(sample, cache_dir / _cache_name(entry.path), keys[entry.path])
        log.info("extracted %d sequences (%d cached)", len(pending),
                 len(manifest.entries) - len(pending))
    return [(entry, results[entry.path]) for entry in manifest.entries]
