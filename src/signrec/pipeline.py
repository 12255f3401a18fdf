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
from pathlib import Path

from .config import Config, ExtractConfig
from .dataio import DatasetManifest, LoadError, load_sequence, mirror_sequence
from .features import FeatureSample, assemble, load_sample, save_sample
from .segmentation import SequenceSegmenter, SkinHistogram
from .synth import SKIN_FILES, load_skin_corpus

log = logging.getLogger(__name__)

# Part of every cache key: bump it when cached samples change meaning.
CACHE_FORMAT = 2


def map_ordered(worker, tasks, jobs):
    """Run tasks, possibly in parallel; results always in task order."""
    if jobs > 1 and len(tasks) > 1:
        with multiprocessing.Pool(min(jobs, len(tasks))) as pool:
            return pool.map(worker, tasks)
    return [worker(t) for t in tasks]


def general_skin_model(corpus_dir, cfg: Config) -> SkinHistogram:
    skin, nonskin = load_skin_corpus(corpus_dir)
    return SkinHistogram.from_pixels(skin, nonskin, bins=cfg.hist_bins)


def extract_sequence(seq_dir, general_model, cfg: Config, debug_dir=None) -> FeatureSample:
    seq = load_sequence(seq_dir)
    if seq.handedness == "left":
        seq = mirror_sequence(seq)
    segmenter = SequenceSegmenter(general_model, cfg)
    result = segmenter.run(seq, debug_dir=debug_dir)
    return assemble(seq, result, cfg)


def _corpus_digest(root, cfg: ExtractConfig):
    """Hash of what every sequence's extraction shares: the cache format,
    the extraction settings and the skin pixel lists."""
    digest = hashlib.sha256(f"format={CACHE_FORMAT};".encode())
    for field in dataclasses.fields(ExtractConfig):
        digest.update(f"{field.name}={getattr(cfg, field.name)!r};".encode())
    for name in SKIN_FILES:
        digest.update(name.encode())
        digest.update((root / name).read_bytes())
    return digest


def _sequence_key(seq_dir, corpus_digest) -> str:
    digest = corpus_digest.copy()
    for path in sorted(Path(seq_dir).iterdir()):
        if path.name.startswith("gt_"):
            continue
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _extract_one(args):
    seq_dir, general_model, cfg = args
    return extract_sequence(seq_dir, general_model, cfg)


def _cache_name(entry_path):
    return entry_path.replace("/", "__") + ".npz"


def extract_corpus(manifest_path, cfg: Config, cache_dir=None, jobs=None):
    """Extract every manifest entry, reusing cached feature records.

    Returns a list of (entry, FeatureSample) in manifest order.
    """
    manifest_path = Path(manifest_path)
    manifest = DatasetManifest.load(manifest_path)
    root = manifest_path.parent
    general_model = general_skin_model(root, cfg)

    keys = {}
    results: dict[str, FeatureSample] = {}
    if cache_dir is not None:
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        corpus_digest = _corpus_digest(root, cfg)
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
        tasks = [(str(root / e.path), general_model, cfg) for e in pending]
        for entry, sample in zip(pending, map_ordered(_extract_one, tasks, jobs or cfg.jobs)):
            results[entry.path] = sample
            if cache_dir is not None:
                save_sample(sample, cache_dir / _cache_name(entry.path), keys[entry.path])
        log.info("extracted %d sequences (%d cached)", len(pending),
                 len(manifest.entries) - len(pending))
    return [(entry, results[entry.path]) for entry in manifest.entries]
