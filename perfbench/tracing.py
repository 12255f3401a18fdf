"""Spans around the calls into signrec's layers, recorded from outside.

A `Tracer` patches public functions at the attribute their callers look
them up by (``signrec.pipeline.load_sequence``, ``signrec.tracking.predict``,
...) and records one span per call: name, start, end, parent span and the
run (set-up or iteration) it belongs to, plus a few exact counts read from
the call's arguments and result.  Spans stay in memory until the benchmark
writes them out.  `unit_metrics` turns the spans of one run into the
per-layer metrics.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _seq_bytes(seq_dir):
    """Bytes of the files `load_sequence` reads (ground truth excluded)."""
    return sum(p.stat().st_size for p in Path(seq_dir).iterdir()
               if not p.name.startswith("gt_"))


def _segmentation_counts(args, result):
    missing = hoh = hof = 0
    for frame in result.frames:
        hands = (frame.left, frame.right)
        missing += sum(o is None for o in hands)
        kinds = {o.occlusion for o in hands if o is not None}
        hoh += "hand_over_hand" in kinds
        hof += "hand_over_face" in kinds
    return {"frames": len(result.frames), "missing": missing,
            "hand_over_hand": hoh, "hand_over_face": hof}


def _baum_welch_counts(args, result):
    _, history = result
    frames = sum(len(s) for s in args["samples"])
    converged = len(history) < args["max_iter"] or (
        len(history) >= 2 and abs(history[-1] - history[-2]) < args["tol"])
    return {"iterations": len(history), "em_frames": frames * len(history),
            "converged": int(converged)}


def _classify_counts(args, result):
    _, scores = result
    return {"unscorable": int(not np.isfinite(scores).any())}


def _dtw_counts(args, result):
    return {"cells": len(args["ref"]) * len(args["query"])}


def _targets():
    """(owner, attribute, span name, counter) for every wrapped call."""
    from signrec import (evaluation, features, hmm, pipeline, segmentation,
                         signerlda, tracking)

    return [
        (pipeline, "load_sequence", "dataio.load_sequence",
         lambda a, r: {"bytes": _seq_bytes(a["path"])}),
        (pipeline, "mirror_sequence", "dataio.mirror_sequence", None),
        (segmentation.SequenceSegmenter, "run", "segmentation.run",
         _segmentation_counts),
        (tracking, "predict", "tracking.predict", None),
        (tracking, "update", "tracking.update", None),
        (pipeline, "assemble", "features.assemble", None),
        (features, "convex_hull", "features.convex_hull", None),
        (features, "shape_context", "features.shape_context", None),
        (features, "hog", "features.hog", None),
        (features, "hu_moments", "features.hu_moments", None),
        (pipeline, "save_sample", "pipeline.save_sample", None),
        (pipeline, "load_sample", "pipeline.load_sample", None),
        (evaluation, "fit_transform", "signerlda.fit_transform", None),
        (evaluation, "project", "signerlda.project", None),
        (signerlda, "dtw_align", "signerlda.dtw_align", _dtw_counts),
        (signerlda, "solve_transform", "signerlda.solve_transform", None),
        (evaluation, "train_bank", "hmm.train_bank", None),
        (hmm, "baum_welch", "hmm.baum_welch", _baum_welch_counts),
        (hmm, "forward_loglik", "hmm.forward_loglik",
         lambda a, r: {"frames": len(a["frames"])}),
        (hmm.ClassifierBank, "classify", "hmm.classify", _classify_counts),
    ]


class Tracer:
    """In-memory span recorder; `installed()` patches the layer calls."""

    def __init__(self):
        self.spans = []
        self.run_id = None
        self._stack = []

    @contextmanager
    def span(self, name, **counts):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "run": self.run_id, **counts}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, original, name, counter):
        signature = inspect.signature(original)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record.update(counter(bound.arguments, result))
            return result

        return traced

    @contextmanager
    def installed(self, run_id):
        """Record spans for run `run_id` while the body runs."""
        self.run_id = run_id
        patched = []
        try:
            for owner, attr, name, counter in _targets():
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(original, name, counter))
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
            self.run_id = None


def _duration(span):
    return span["end"] - span["start"]


def unit_metrics(spans, all_spans):
    """Per-layer metrics of one run (a set-up or an iteration).

    `spans` are the spans of the run, `all_spans` the full list their
    ``parent`` fields index into.  Only layers that recorded a span appear.
    """
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(name):
        return len(by_name.get(name, []))

    def total(name, key=None):
        return float(sum(_duration(s) if key is None else s[key]
                         for s in by_name.get(name, [])))

    def mean_ms(name):
        n = calls(name)
        return 1e3 * total(name) / n if n else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    layers = {s["name"].split(".", 1)[0] for s in spans}
    out = {}

    # A layer's self time: its spans' durations minus what their direct
    # children cover, i.e. the time in which it is the innermost layer.
    position = {id(s): i for i, s in enumerate(all_spans)}
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + _duration(s)
    for layer in layers:
        out[f"{layer}.self_s"] = 0.0
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[f"{layer}.self_s"] += _duration(s) - children.get(position[id(s)], 0.0)

    if "synth" in layers:
        render = by_name["synth.render"][0]
        out["synth.render_s"] = _duration(render)
        out["synth.seq_ms"] = 1e3 * _duration(render) / render["sequences"]
    if "dataio" in layers:
        out["dataio.load_sequence_ms"] = mean_ms("dataio.load_sequence")
        out["dataio.load_sequence_calls"] = calls("dataio.load_sequence")
        out["dataio.bytes_read"] = total("dataio.load_sequence", "bytes")
        out["dataio.mirror_ms"] = mean_ms("dataio.mirror_sequence")
    if "segmentation" in layers:
        frames = total("segmentation.run", "frames")
        out["segmentation.run_ms"] = mean_ms("segmentation.run")
        out["segmentation.frames"] = frames
        out["segmentation.hand_missing_frac"] = ratio(
            total("segmentation.run", "missing"), 2 * frames)
        out["segmentation.hand_over_hand_frames"] = total(
            "segmentation.run", "hand_over_hand")
        out["segmentation.hand_over_face_frames"] = total(
            "segmentation.run", "hand_over_face")
    if "tracking" in layers:
        out["tracking.predict_calls"] = calls("tracking.predict")
        out["tracking.update_calls"] = calls("tracking.update")
        out["tracking.update_per_predict"] = ratio(
            calls("tracking.update"), calls("tracking.predict"))
    if "features" in layers:
        out["features.assemble_ms"] = mean_ms("features.assemble")
        for kernel in ("convex_hull", "shape_context", "hog", "hu_moments"):
            out[f"features.{kernel}_s"] = total(f"features.{kernel}")
    if "pipeline" in layers:
        warm = by_name.get("pipeline.warm_pass", [])
        cold = by_name.get("pipeline.cold_pass", [])
        warm_ids = {position[id(s)] for s in warm}
        warm_loads = [s for s in by_name.get("pipeline.load_sample", [])
                      if s["parent"] in warm_ids]
        entries = sum(s["sequences"] for s in warm)
        out["pipeline.sequences"] = sum(s["sequences"] for s in cold)
        out["pipeline.cache_save_ms"] = mean_ms("pipeline.save_sample")
        out["pipeline.cache_load_ms"] = mean_ms("pipeline.load_sample")
        out["pipeline.cache_hits"] = len(warm_loads)
        out["pipeline.cache_hit_ratio"] = ratio(len(warm_loads), entries)
        out["pipeline.cache_bytes"] = max((s["cache_bytes"] for s in cold),
                                          default=0)
        out["pipeline.digest_s"] = ratio(
            sum(map(_duration, warm)) - sum(map(_duration, warm_loads)),
            len(warm))
        out["pipeline.cold_pass_s"] = ratio(sum(map(_duration, cold)), len(cold))
        out["pipeline.warm_pass_s"] = ratio(sum(map(_duration, warm)), len(warm))
    if "signerlda" in layers:
        out["signerlda.fit_transform_s"] = total("signerlda.fit_transform")
        out["signerlda.dtw_align_calls"] = calls("signerlda.dtw_align")
        out["signerlda.dtw_align_s"] = total("signerlda.dtw_align")
        out["signerlda.dtw_cells"] = total("signerlda.dtw_align", "cells")
        out["signerlda.solve_transform_s"] = total("signerlda.solve_transform")
        out["signerlda.project_s"] = total("signerlda.project")
    if "hmm" in layers:
        em_frames = total("hmm.baum_welch", "em_frames")
        fwd_frames = total("hmm.forward_loglik", "frames")
        classify = [1e3 * _duration(s) for s in by_name.get("hmm.classify", [])]
        out["hmm.train_bank_s"] = total("hmm.train_bank")
        out["hmm.baum_welch_calls"] = calls("hmm.baum_welch")
        out["hmm.baum_welch_s"] = total("hmm.baum_welch")
        out["hmm.em_iterations"] = total("hmm.baum_welch", "iterations")
        out["hmm.em_converged_frac"] = ratio(
            total("hmm.baum_welch", "converged"), calls("hmm.baum_welch"))
        out["hmm.em_frames"] = em_frames
        out["hmm.em_us_per_frame"] = 1e6 * ratio(total("hmm.baum_welch"), em_frames)
        out["hmm.forward_calls"] = calls("hmm.forward_loglik")
        out["hmm.forward_frames"] = fwd_frames
        out["hmm.forward_us_per_frame"] = 1e6 * ratio(
            total("hmm.forward_loglik"), fwd_frames)
        out["hmm.classify_ms_p50"] = _percentile(classify, 50)
        out["hmm.classify_ms_p90"] = _percentile(classify, 90)
        out["hmm.unscorable"] = total("hmm.classify", "unscorable")
    if "evaluation" in layers:
        out["evaluation.prepare_dataset_s"] = total("evaluation.prepare_dataset")
    return out


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0
