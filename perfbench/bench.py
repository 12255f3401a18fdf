"""Workloads of the signrec benchmark and the loop that measures them.

Every workload is a closed loop in one process with ``jobs=1``: the next
call starts when the previous one returned, so the numbers describe the
single-threaded program and not the scheduler of a shared host.

* ``extract``: set-up renders the corpus.  Each iteration runs
  ``pipeline.extract_corpus`` into an empty cache (cold pass), then
  `WARM_PASSES` times on the warm cache.  Only dataio, segmentation,
  tracking, features and the cache do work; hmm and signerlda do none.  The
  left-handed signer makes the loader mirror.
* ``sd_loocv``: set-up renders and extracts (cold, then one warm pass).  Each
  iteration runs ``prepare_dataset`` and ``run_sd_loocv`` on ``pos,S,HOG``
  (D=98): many short Baum-Welch fits, no signerlda.
* ``si_loso_lda``: the same set-up, then ``prepare_dataset`` and
  ``run_si_loso(lda_dims=8)``: the only workload that runs signerlda (DTW,
  scatter, eigensolve), with few long EM runs at D=8.

``setup_s`` is the render time plus, on the protocol workloads, the cold
extraction; ``iter_s`` is the wall time of one iteration.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from signrec import evaluation, pipeline
from signrec.config import Config
from signrec.features import FeatureSetSpec
from signrec.synth import SynthSpec, generate_synthetic_corpus

from tracing import Tracer, unit_metrics

WORKLOADS = ("extract", "sd_loocv", "si_loso_lda")

# The bench corpus: 4 signers, signer 1 left-handed, strong signer styles.
# Two classes (the smallest corpus the generator accepts; class 1 crosses
# the hands) keep every run of the benchmark within its time budget on a
# 2-core VM.
BENCH_SPEC = dict(num_classes=2, num_signers=4, samples=3, frames=36,
                  width=160, height=120, style_strength=1.6, left_handed=(1,))
FEATURE_SET = "pos,S,HOG"
LDA_DIMS = 8
SETUPS = 2        # set-ups per run; setup_s is their median
WARM_PASSES = 5   # warm-cache passes after each cold pass of `extract`

# The protocols keep the program's EM stopping rule (hmm_tol) but cap the
# iterations per fit (hmm_max_iter) below the default of 40.  Uncapped, the
# EM work of one protocol run differs by about +-20 % between seeds (SD
# 17k-24k and SI 63k-95k EM frames over seeds 11-17), more than any bound
# the benchmark may set.  Under these caps most fits stop at the cap, so
# the EM frames of a run vary by about 6 % (SD) and 3 % (SI) over seeds
# 101-106.  A fit that converges sooner still stops early (12-28 % of SD
# fits do, no SI fit does), so a change to EM convergence moves the SD
# iter_s and hmm.em_converged_frac.  The SI cap keeps an iteration short
# enough that a run times several.
EM_CAP = {"sd_loocv": 5, "si_loso_lda": 10}

# Every workload reports every end-to-end metric, so these are the ones all
# three share.  The protocol figures (sd_s and si_s are iter_s of their
# workload, the accuracies) and the extraction figures (extract_seq_per_s,
# extract_warm_s) are printed next to them; the accuracies are checked
# against floors instead of bounded.
END_TO_END = {
    "setup_s": "s",
    "iter_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "synth.render_s": "s", "synth.seq_ms": "ms", "synth.self_s": "s",
    "dataio.load_sequence_ms": "ms", "dataio.load_sequence_calls": "count",
    "dataio.bytes_read": "bytes", "dataio.mirror_ms": "ms",
    "dataio.self_s": "s",
    "segmentation.run_ms": "ms", "segmentation.frames": "count",
    "segmentation.hand_missing_frac": "fraction",
    "segmentation.hand_over_hand_frames": "count",
    "segmentation.hand_over_face_frames": "count",
    "segmentation.self_s": "s",
    "tracking.predict_calls": "count", "tracking.update_calls": "count",
    "tracking.update_per_predict": "fraction", "tracking.self_s": "s",
    "features.assemble_ms": "ms", "features.convex_hull_s": "s",
    "features.shape_context_s": "s", "features.hog_s": "s",
    "features.hu_moments_s": "s", "features.self_s": "s",
    "pipeline.sequences": "count", "pipeline.cache_save_ms": "ms",
    "pipeline.cache_load_ms": "ms", "pipeline.cache_hits": "count",
    "pipeline.cache_hit_ratio": "fraction", "pipeline.cache_bytes": "bytes",
    "pipeline.digest_s": "s", "pipeline.cold_pass_s": "s",
    "pipeline.warm_pass_s": "s", "pipeline.self_s": "s",
    "signerlda.fit_transform_s": "s", "signerlda.dtw_align_calls": "count",
    "signerlda.dtw_align_s": "s", "signerlda.dtw_cells": "count",
    "signerlda.solve_transform_s": "s", "signerlda.project_s": "s",
    "signerlda.self_s": "s",
    "hmm.train_bank_s": "s", "hmm.baum_welch_calls": "count",
    "hmm.baum_welch_s": "s", "hmm.em_iterations": "count",
    "hmm.em_converged_frac": "fraction", "hmm.em_frames": "count",
    "hmm.em_us_per_frame": "us", "hmm.forward_calls": "count",
    "hmm.forward_frames": "count", "hmm.forward_us_per_frame": "us",
    "hmm.classify_ms_p50": "ms", "hmm.classify_ms_p90": "ms",
    "hmm.unscorable": "count", "hmm.self_s": "s",
    "evaluation.prepare_dataset_s": "s", "evaluation.accuracy": "fraction",
    "evaluation.self_s": "s",
    "trace.overhead_s": "s", "trace.overhead_frac": "fraction",
}

# Work counts that must repeat exactly for the same seed.
EXACT_COUNTS = ("pipeline.sequences", "segmentation.frames", "hmm.em_iterations",
                "hmm.em_frames", "hmm.forward_frames", "signerlda.dtw_cells",
                "pipeline.cache_hits")


@dataclass(frozen=True)
class Settings:
    spec: dict = field(default_factory=lambda: dict(BENCH_SPEC))
    # Gate 07's floor.
    sd_floor: float = 0.90
    # The seed commit scores 1.0 in SI-LOSO+LDA(8) on the bench corpus for
    # every seed tried (see baseline.json); one miss per held-out signer
    # still passes.
    si_floor: float = 0.80


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _same_features(a, b):
    return len(a) == len(b) and all(
        ea.path == eb.path and sa.sign_label == sb.sign_label
        and sa.signer_id == sb.signer_id and sa.frames.dtype == sb.frames.dtype
        and np.array_equal(sa.frames, sb.frames)
        for (ea, sa), (eb, sb) in zip(a, b)
    )


def _dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


class BenchRun:
    """One run of one workload: `SETUPS` set-ups, then timed iterations."""

    def __init__(self, workload, seed, work_dir, settings=Settings(), trace=False):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.settings = settings
        self.spec = SynthSpec(**settings.spec)
        self.n_sequences = self.spec.num_classes * self.spec.num_signers * self.spec.samples
        self.feature_set = FeatureSetSpec.parse(FEATURE_SET)
        self.cfg = Config(jobs=1)
        if workload in EM_CAP:
            self.cfg = Config(jobs=1, hmm_max_iter=EM_CAP[workload])
        self.work = Path(work_dir)
        self.tracer = Tracer() if trace else None

        self.setup_s, self.cold_s, self.warm_s = [], [], []
        self.iter_s, self.traced_iter_s, self.accuracy = [], [], []
        self.attempted = self.failed = 0
        self.units = {}               # run id -> per-layer metrics
        self._reference = None        # first cold-pass features of the run
        self._first_confusion = None
        self._extracted = None
        self._corpus = None

    # --- helpers --------------------------------------------------------

    def _span(self, name, **counts):
        if self.tracer is not None and self.tracer.run_id is not None:
            return self.tracer.span(name, **counts)
        return nullcontext(counts)

    def _fresh(self, name):
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        return path

    def _render(self):
        out = self._fresh("corpus")
        with self._span("synth.render", sequences=self.n_sequences):
            start = time.perf_counter()
            generate_synthetic_corpus(self.spec, self.seed, out)
            elapsed = time.perf_counter() - start
        self._corpus = out / "manifest.tsv"
        return elapsed

    def _extract(self, cache, span_name):
        with self._span(span_name, sequences=self.n_sequences) as record:
            start = time.perf_counter()
            extracted = pipeline.extract_corpus(
                self._corpus, self.cfg, cache_dir=cache, jobs=1)
            elapsed = time.perf_counter() - start
        if len(extracted) != self.n_sequences:
            raise CheckFailed(f"{len(extracted)} samples for {self.n_sequences} sequences")
        return extracted, elapsed, record

    def _cold_then_warm(self, warm_passes):
        """Cold pass into an empty cache, then `warm_passes` warm passes.

        Returns the warm-pass features and the cold-pass time."""
        cache = self._fresh("cache")
        cold, cold_s, record = self._extract(cache, "pipeline.cold_pass")
        record["cache_bytes"] = _dir_bytes(cache)
        if self._reference is None:
            self._reference = cold
        elif not _same_features(cold, self._reference):
            raise CheckFailed("cold pass differs from the run's first cold pass")
        self.cold_s.append(cold_s)
        for _ in range(warm_passes):
            warm, warm_s, _ = self._extract(cache, "pipeline.warm_pass")
            if not _same_features(warm, cold):
                raise CheckFailed("warm-cache features differ from the cold pass")
            self.warm_s.append(warm_s)
        return warm, cold_s

    # --- units of work -------------------------------------------------------

    def setup(self):
        elapsed = self._render()
        if self.workload != "extract":
            self._extracted, cold_s = self._cold_then_warm(1)
            elapsed += cold_s
        self.setup_s.append(elapsed)

    def step(self):
        if self.workload == "extract":
            self._cold_then_warm(WARM_PASSES)
            return
        with self._span("evaluation.prepare_dataset"):
            prepared = evaluation.prepare_dataset(self._extracted, self.feature_set, self.cfg)
        if self.workload == "sd_loocv":
            floor = self.settings.sd_floor
            with self._span("evaluation.run_sd_loocv"):
                report = evaluation.run_sd_loocv(prepared, self.cfg, FEATURE_SET, jobs=1)
        else:
            floor = self.settings.si_floor
            with self._span("evaluation.run_si_loso"):
                report = evaluation.run_si_loso(prepared, self.cfg, lda_dims=LDA_DIMS,
                                                feature_spec_name=FEATURE_SET, jobs=1)
        self.accuracy.append(report.mean_accuracy)
        if report.confusion.sum() != self.n_sequences:
            raise CheckFailed(f"{report.confusion.sum()} samples scored, "
                              f"expected {self.n_sequences}")
        if report.mean_accuracy < floor:
            raise CheckFailed(f"{report.protocol} accuracy {report.mean_accuracy:.3f} "
                              f"below the floor {floor}")
        if self._first_confusion is None:
            self._first_confusion = report.confusion
        elif not np.array_equal(report.confusion, self._first_confusion):
            raise CheckFailed("confusion matrix differs between iterations")

    def _unit(self, run_id, work, traced):
        """Run one set-up or iteration; count it, and a failure in it."""
        self.attempted += 1
        tracing = self.tracer.installed(run_id) if traced else nullcontext()
        first_span = len(self.tracer.spans) if traced else 0
        start = time.perf_counter()
        try:
            with tracing:
                work()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        elapsed = time.perf_counter() - start
        if traced:
            spans = self.tracer.spans[first_span:]
            metrics = unit_metrics(spans, self.tracer.spans)
            kind = run_id.split("-")[0]
            for other_id, other in self.units.items():
                if other_id.split("-")[0] == kind and any(
                        other.get(k) != metrics.get(k) for k in EXACT_COUNTS):
                    self.failed += 1
                    print(f"work counts of {run_id} differ from {other_id}",
                          file=sys.stderr)
                    break
            self.units[run_id] = metrics
        return elapsed

    # --- the run --------------------------------------------------------------

    def execute(self, seconds):
        """Set up `SETUPS` times, then iterate for at least `seconds`.

        A traced run iterates in pairs, one untraced and one traced, taking
        turns at going first; the difference of their medians is the
        tracing overhead."""
        traced = self.tracer is not None
        for i in range(SETUPS):
            if self._unit(f"setup-{i}", self.setup, traced) is None:
                return
        start = time.perf_counter()
        i = 0
        while True:
            trace_this = traced and (i % 2) != (i // 2) % 2
            elapsed = self._unit(f"iter-{i}", self.step, trace_this)
            if elapsed is not None:
                (self.traced_iter_s if trace_this else self.iter_s).append(elapsed)
            i += 1
            if time.perf_counter() - start >= seconds and (not traced or i % 2 == 0):
                break

    @property
    def correct(self):
        return self.failed == 0 and self.attempted > 0 and bool(self.iter_s)

    def end_to_end(self):
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "setup_s": statistics.median(self.setup_s),
            "iter_s": statistics.median(self.iter_s),
            "peak_rss_mb": (own + children) / 1024.0,
        }

    def per_layer(self):
        """Median over the traced runs in which each layer did work; 0 for a
        layer the workload does not reach."""
        out = {}
        for name in PER_LAYER:
            values = [m[name] for m in self.units.values() if name in m]
            out[name] = float(statistics.median(values)) if values else 0.0
        if self.accuracy:
            out["evaluation.accuracy"] = statistics.median(self.accuracy)
        untraced = statistics.median(self.iter_s)
        overhead = statistics.median(self.traced_iter_s) - untraced
        out["trace.overhead_s"] = overhead
        out["trace.overhead_frac"] = overhead / untraced
        return out

    def named(self):
        """The workload's figures under their protocol names (``sd_s`` is
        ``iter_s`` of sd_loocv, ...), printed as text above the result."""
        e2e = self.end_to_end()
        out = {
            "setup_s": (e2e["setup_s"], "s"),
            "extract_seq_per_s": (self.n_sequences / statistics.median(self.cold_s), "1/s"),
            "extract_warm_s": (statistics.median(self.warm_s), "s"),
        }
        if self.workload != "extract":
            prefix = "sd" if self.workload == "sd_loocv" else "si"
            out[f"{prefix}_s"] = (e2e["iter_s"], "s")
            out[f"{prefix}_accuracy"] = (statistics.median(self.accuracy), "fraction")
        out["peak_rss_mb"] = (e2e["peak_rss_mb"], "MB")
        out["failed_frac"] = (self.failed / max(self.attempted, 1), "fraction")
        return out
