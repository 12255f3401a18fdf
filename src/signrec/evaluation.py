"""Recognition experiments: per-signer leave-one-sample-out and
leave-one-signer-out with an optional signer-independent feature transform.

Held-out data never reaches model fitting: in the signer-independent
protocol both the feature transform and the sign models are built from the
training signers only, and the held-out signer's samples are merely
projected and scored.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import Config
from .dataio import LoadError
from .features import FeatureSample, FeatureSetSpec, zero_idle_hand
from .hmm import train_bank
from .pipeline import map_ordered
from .signerlda import fit_transform, project

log = logging.getLogger(__name__)


@dataclass
class EvalReport:
    protocol: str                 # "SD-LOOCV" or "SI-LOSO"
    feature_spec: str
    lda_dims: int
    vocabulary: list[str]
    per_signer: dict[str, float]
    mean_accuracy: float          # unweighted mean over signers
    overall_accuracy: float       # trace / (confusion total + unscorable)
    confusion: np.ndarray         # (C, C) counts, rows = true class
    runtime_seconds: float
    config_snapshot: str
    unscorable: int = 0           # samples no model could score; in no cell

    def to_json(self):
        payload = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        payload["confusion"] = self.confusion.astype(int).tolist()
        return json.dumps(payload, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text, path):
        """Parse `to_json` output read from `path` (named in errors)."""
        data = json.loads(text)
        try:
            values = {f.name: data[f.name] for f in dataclasses.fields(cls)}
        except KeyError as exc:
            raise LoadError(f"{path}: missing key {exc.args[0]!r}") from None
        values["confusion"] = np.array(values["confusion"], dtype=np.int64)
        return cls(**values)


@dataclass
class _PreparedSample:
    signer: str
    label: str
    frames: np.ndarray        # selected feature matrix
    posxy: np.ndarray         # alignment features from the full matrix


def prepare_dataset(extracted, spec: FeatureSetSpec, cfg: Config):
    """Select the feature set (after optional idle-hand zeroing) and keep the
    hand positions used for alignment."""
    prepared = []
    for entry, sample in extracted:
        full = sample
        if cfg.zero_idle:
            full = zero_idle_hand(
                full, cfg.idle_path_threshold, cfg.idle_speed_threshold
            )
        prepared.append(
            _PreparedSample(
                signer=entry.signer_id,
                label=entry.sign_label,
                frames=full.frames[:, spec.columns()],
                posxy=full.posxy(),
            )
        )
    return prepared


def _by_class(samples):
    grouped: dict[str, list] = {}
    for s in samples:
        grouped.setdefault(s.label, []).append(s)
    return grouped


class _Tally:
    """Decisions of one protocol run: a confusion matrix (rows = true class)
    plus the samples no model could score, which count as misses."""

    def __init__(self, vocabulary):
        self.index = {label: i for i, label in enumerate(vocabulary)}
        self.confusion = np.zeros((len(vocabulary), len(vocabulary)), dtype=np.int64)
        self.unscorable = 0

    def add(self, label, predicted):
        if predicted is None:
            self.unscorable += 1
        else:
            self.confusion[self.index[label], self.index[predicted]] += 1

    def merge(self, other):
        self.confusion += other.confusion
        self.unscorable += other.unscorable

    def accuracy(self):
        return float(np.trace(self.confusion)
                     / max(self.confusion.sum() + self.unscorable, 1))


def _train_kwargs(cfg: Config):
    return dict(
        n_states=cfg.hmm_states,
        self_prob=cfg.hmm_self_prob,
        max_iter=cfg.hmm_max_iter,
        tol=cfg.hmm_tol,
        var_floor=cfg.variance_floor,
    )


def train_recognizer(samples, cfg: Config, lda_dims, feature_spec):
    """Fit the signer-independent transform (None when `lda_dims` is 0) on
    the prepared samples, then train the bank on them projected through it.
    Returns (transform, bank)."""
    grouped = _by_class(samples)
    frames_by_class = {label: [s.frames for s in group] for label, group in grouped.items()}
    transform = None
    if lda_dims > 0:
        transform = fit_transform(
            frames_by_class,
            {label: [s.posxy for s in group] for label, group in grouped.items()},
            out_dim=lda_dims,
            keep_frames=cfg.lda_resample_third,
            shrinkage=cfg.lda_shrinkage,
            shrinkage_max=cfg.lda_shrinkage_max,
            feature_spec=feature_spec,
        )
        frames_by_class = {label: [project(f, transform) for f in frames]
                           for label, frames in frames_by_class.items()}
    bank = train_bank(frames_by_class, **_train_kwargs(cfg), feature_spec=feature_spec)
    return transform, bank


def _sd_one_signer(args):
    """All leave-one-sample-out folds of a single signer.

    Removing one sample only changes the model of its own class, so the
    other classes reuse a model trained on all of their samples; the fold
    bank is exactly the one strict leave-one-out training would produce.
    """
    signer, own, vocabulary, cfg = args
    grouped = _by_class(own)
    if any(len(grouped.get(label, [])) < 2 for label in vocabulary):
        return signer, None
    tally = _Tally(vocabulary)
    full_bank = train_bank(
        {label: [s.frames for s in grouped[label]] for label in vocabulary},
        **_train_kwargs(cfg),
    )
    for label in vocabulary:
        group = grouped[label]
        for hold in range(len(group)):
            rest = [s.frames for k, s in enumerate(group) if k != hold]
            loo_bank = train_bank({label: rest}, **_train_kwargs(cfg))
            models = dict(full_bank.models)
            models[label] = loo_bank.models[label]
            bank = type(full_bank)(models=models, vocabulary=vocabulary)
            tally.add(label, bank.classify(group[hold].frames)[0])
    return signer, tally


def _report(protocol, folds, vocabulary, cfg: Config, lda_dims, feature_spec_name,
            start) -> EvalReport:
    """Merge the (signer, tally) results of one protocol's folds into its
    report. A fold whose tally is None could not be trained and is skipped."""
    total = _Tally(vocabulary)
    per_signer = {}
    for signer, tally in folds:
        if tally is None:
            log.warning("%s: skipping signer %s: too few training samples for some class",
                        protocol, signer)
            continue
        per_signer[signer] = tally.accuracy()
        total.merge(tally)

    if not per_signer:
        raise ValueError(f"{protocol}: no signer could be evaluated")
    return EvalReport(
        protocol=protocol,
        feature_spec=feature_spec_name,
        lda_dims=lda_dims,
        vocabulary=vocabulary,
        per_signer=per_signer,
        mean_accuracy=float(np.mean(list(per_signer.values()))),
        overall_accuracy=total.accuracy(),
        confusion=total.confusion,
        runtime_seconds=time.monotonic() - start,
        config_snapshot=cfg.snapshot(),
        unscorable=total.unscorable,
    )


def run_sd_loocv(prepared, cfg: Config, feature_spec_name="", jobs=None) -> EvalReport:
    """Per signer: hold out each sample in turn, train on the rest."""
    start = time.monotonic()
    vocabulary = sorted({s.label for s in prepared})
    signers = sorted({s.signer for s in prepared})
    tasks = [
        (signer, [s for s in prepared if s.signer == signer], vocabulary, cfg)
        for signer in signers
    ]
    return _report("SD-LOOCV", map_ordered(_sd_one_signer, tasks, jobs or cfg.jobs),
                   vocabulary, cfg, 0, feature_spec_name, start)


def _si_one_signer(args):
    """One held-out signer: fit the transform (if any) and the sign models on
    the training signers only, then score the held-out samples."""
    held_out, train, test, vocabulary, cfg, lda_dims, feature_spec_name = args
    if {s.label for s in train} != set(vocabulary):
        return held_out, None

    transform, bank = train_recognizer(train, cfg, lda_dims, feature_spec_name)
    tally = _Tally(vocabulary)
    for s in test:
        frames = project(s.frames, transform) if transform is not None else s.frames
        tally.add(s.label, bank.classify(frames)[0])
    return held_out, tally


def run_si_loso(prepared, cfg: Config, lda_dims=0, feature_spec_name="",
                jobs=None) -> EvalReport:
    """Leave one signer out; optionally fit the feature transform on the
    remaining signers and project everything through it before training."""
    start = time.monotonic()
    signers = sorted({s.signer for s in prepared})
    if len(signers) < 2:
        raise ValueError("leave-one-signer-out needs at least 2 signers")
    vocabulary = sorted({s.label for s in prepared})
    tasks = [
        (
            held_out,
            [s for s in prepared if s.signer != held_out],
            [s for s in prepared if s.signer == held_out],
            vocabulary,
            cfg,
            lda_dims,
            feature_spec_name,
        )
        for held_out in signers
    ]
    return _report("SI-LOSO", map_ordered(_si_one_signer, tasks, jobs or cfg.jobs),
                   vocabulary, cfg, lda_dims, feature_spec_name, start)


# --- rendering ---------------------------------------------------------------

def _report_csv(report: EvalReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerow(["protocol", report.protocol])
    writer.writerow(["feature_spec", report.feature_spec])
    writer.writerow(["lda_dims", report.lda_dims])
    writer.writerow(["classes", len(report.vocabulary)])
    writer.writerow(["mean_accuracy", f"{report.mean_accuracy:.6f}"])
    writer.writerow(["overall_accuracy", f"{report.overall_accuracy:.6f}"])
    writer.writerow(["runtime_seconds", f"{report.runtime_seconds:.3f}"])
    for signer in sorted(report.per_signer):
        writer.writerow(["signer_accuracy", signer, f"{report.per_signer[signer]:.6f}"])
    return buf.getvalue()


def _confusion_csv(report: EvalReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["true\\predicted"] + report.vocabulary)
    for i, label in enumerate(report.vocabulary):
        writer.writerow([label] + [int(v) for v in report.confusion[i]])
    return buf.getvalue()


def _confusion_svg(report: EvalReport, cell=14, margin=64) -> str:
    n = len(report.vocabulary)
    size = margin + n * cell + 8
    peak = max(int(report.confusion.max()), 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for i in range(n):
        for j in range(n):
            value = int(report.confusion[i, j])
            shade = 255 - int(round(215 * value / peak)) if value else 255
            color = f"rgb({shade},{shade},255)" if value else "rgb(245,245,245)"
            x = margin + j * cell
            y = margin + i * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell - 1}" height="{cell - 1}" '
                f'fill="{color}"/>'
            )
    for i, label in enumerate(report.vocabulary):
        y = margin + i * cell + cell - 4
        parts.append(
            f'<text x="{margin - 4}" y="{y}" font-size="8" text-anchor="end" '
            f'font-family="monospace">{label}</text>'
        )
        x = margin + i * cell + cell // 2
        parts.append(
            f'<text x="{x}" y="{margin - 6}" font-size="8" text-anchor="middle" '
            f'font-family="monospace">{i}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(report: EvalReport, out_dir):
    """Write report.csv, confusion.csv, confusion.svg and config.txt.

    Output bytes depend only on the report contents, so re-emitting the same
    report reproduces the files exactly.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(_report_csv(report))
    (out / "confusion.csv").write_text(_confusion_csv(report))
    (out / "confusion.svg").write_text(_confusion_svg(report))
    (out / "config.txt").write_text(report.config_snapshot + "\n")
    (out / "report.json").write_text(report.to_json() + "\n")
    return out
