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
from .features import FeatureSetSpec, zero_idle_hand
from .hmm import ClassifierBank, train_bank, trainable
from .pipeline import map_ordered
from .signerlda import fit_transform, project

log = logging.getLogger(__name__)

# by `EvalReport` annotation, (test of the JSON value, what it asks): exact
# types, so that true is not an int; a number is an int or a float
_NUMBER = (int, float)
_JSON_TYPES = {
    "str": (lambda v: type(v) is str, "a string"),
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (lambda v: type(v) in _NUMBER, "a number"),
    "list[str]": (lambda v: type(v) is list and all(type(x) is str for x in v),
                  "a list of strings"),
    "dict[str, float]": (lambda v: type(v) is dict and all(type(x) in _NUMBER
                                                           for x in v.values()),
                         "an object of numbers"),
    "np.ndarray": (lambda v: type(v) is list and all(
        type(row) is list and all(type(x) is int for x in row) for row in v),
        "a list of integer rows"),
}


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
        """Parse `to_json` output read from `path`; anything else, such as a
        field of another JSON type (see `_JSON_TYPES`), raises LoadError naming
        `path`."""
        try:
            data = json.loads(text)
            values = {f.name: data[f.name] for f in dataclasses.fields(cls)}
        except KeyError as exc:
            raise LoadError(f"{path}: missing key {exc.args[0]!r}") from None
        except (ValueError, TypeError) as exc:   # not JSON, not an object
            raise LoadError(f"{path}: not a report ({type(exc).__name__}: {exc})") from None
        for f in dataclasses.fields(cls):
            valid, what = _JSON_TYPES[f.type]
            if not valid(values[f.name]):
                raise LoadError(f"{path}: key {f.name!r} holds {values[f.name]!r:.60}, "
                                f"not {what}")
        try:
            confusion = values["confusion"] = np.array(values["confusion"], dtype=np.int64)
        except (ValueError, OverflowError) as exc:   # ragged rows, a count past int64
            raise LoadError(f"{path}: not a report ({type(exc).__name__}: {exc})") from None
        n = len(values["vocabulary"])
        if confusion.shape != (n, n):
            raise LoadError(f"{path}: confusion of shape {confusion.shape} for {n} labels")
        return cls(**values)


@dataclass
class _PreparedSample:
    signer: str
    label: str
    frames: np.ndarray        # selected feature matrix
    posxy: np.ndarray         # alignment features from the full matrix

    def __len__(self):
        return len(self.frames)


def prepare_dataset(extracted, spec: FeatureSetSpec, cfg: Config):
    """Select the feature set (after idle-hand zeroing) and keep the hand
    positions used for alignment."""
    prepared = []
    for entry, sample in extracted:
        full = zero_idle_hand(sample.frames, cfg)
        prepared.append(
            _PreparedSample(
                signer=entry.signer_id,
                label=entry.sign_label,
                frames=full[:, spec.columns()],
                posxy=full[:, FeatureSetSpec(("posXY",)).columns()],
            )
        )
    return prepared


def _by_class(samples):
    grouped: dict[str, list] = {}
    for s in samples:
        grouped.setdefault(s.label, []).append(s)
    return grouped


def _can_train(grouped, vocabulary, cfg: Config, n):
    """Whether every class of `vocabulary` has `n` samples at least
    `hmm_states` frames long in `grouped`: 2 for leave-one-out, 1 otherwise."""
    return all(sum(len(s) >= cfg.hmm_states for s in grouped.get(label, [])) >= n
               for label in vocabulary)


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


def train_recognizer(samples, cfg: Config, lda_dims):
    """Fit the signer-independent transform (None when `lda_dims` is 0) on
    the `trainable` prepared samples, then train the bank on them projected
    through it; a class with none raises ValueError before any fit.
    Returns (transform, bank), neither naming its feature set."""
    grouped = trainable(_by_class(samples), cfg.hmm_states)
    frames_by_class = {label: [s.frames for s in group] for label, group in grouped.items()}
    transform = None
    if lda_dims > 0:
        posxy_by_class = {label: [s.posxy for s in group] for label, group in grouped.items()}
        transform = fit_transform(frames_by_class, posxy_by_class, lda_dims, cfg)
        frames_by_class = {label: [project(f, transform) for f in frames]
                           for label, frames in frames_by_class.items()}
    return transform, train_bank(frames_by_class, cfg)


def _sd_one_signer(args):
    """All leave-one-sample-out folds of one signer, on its own samples.

    Removing one sample only changes its class's model, so a fold bank is
    the full bank with that entry refitted without the sample, exactly as
    strict leave-one-out training would give. A signer whose folds
    `_can_train` cannot is skipped.
    """
    signer, prepared, vocabulary, cfg, _ = args
    grouped = _by_class([s for s in prepared if s.signer == signer])
    if not _can_train(grouped, vocabulary, cfg, 2):
        return signer, None
    tally = _Tally(vocabulary)
    full_bank = train_bank(
        {label: [s.frames for s in grouped[label]] for label in vocabulary}, cfg)
    for index, label in enumerate(vocabulary):
        group = grouped[label]
        for hold in range(len(group)):
            rest = [s.frames for k, s in enumerate(group) if k != hold]
            models = list(full_bank.models)
            models[index] = train_bank({label: rest}, cfg).models[0]
            tally.add(label, ClassifierBank(models).classify(group[hold].frames)[0])
    return signer, tally


def _si_one_signer(args):
    """One held-out signer: fit the transform (if any) and the sign models on
    the other signers only, then score the held-out signer's samples. A fold
    whose training set `_can_train` cannot is skipped."""
    held_out, prepared, vocabulary, cfg, lda_dims = args
    train = [s for s in prepared if s.signer != held_out]
    if not _can_train(_by_class(train), vocabulary, cfg, 1):
        return held_out, None

    transform, bank = train_recognizer(train, cfg, lda_dims)
    tally = _Tally(vocabulary)
    for s in prepared:
        if s.signer == held_out:
            frames = project(s.frames, transform) if transform is not None else s.frames
            tally.add(s.label, bank.classify(frames)[0])
    return held_out, tally


def _run(protocol, fold, prepared, cfg: Config, lda_dims, feature_spec_name,
         jobs) -> EvalReport:
    """Run `fold` once per signer and merge the (signer, tally) results into
    the protocol's report. Each fold gets the whole prepared set and takes
    its own split; one whose tally is None could not be trained and is
    skipped."""
    start = time.monotonic()
    vocabulary = sorted({s.label for s in prepared})
    tasks = [(signer, prepared, vocabulary, cfg, lda_dims)
             for signer in sorted({s.signer for s in prepared})]
    total = _Tally(vocabulary)
    per_signer = {}
    for signer, tally in map_ordered(fold, tasks, jobs or cfg.jobs):
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
    return _run("SD-LOOCV", _sd_one_signer, prepared, cfg, 0, feature_spec_name, jobs)


def run_si_loso(prepared, cfg: Config, lda_dims=0, feature_spec_name="",
                jobs=None) -> EvalReport:
    """Leave one signer out: train on the remaining signers, with the feature
    transform fitted on them when `lda_dims` > 0, and score the held-out one."""
    if len({s.signer for s in prepared}) < 2:
        raise ValueError("leave-one-signer-out needs at least 2 signers")
    return _run("SI-LOSO", _si_one_signer, prepared, cfg, lda_dims, feature_spec_name, jobs)


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
    # imported here: xml.sax.saxutils loads urllib, http and ssl, about 2 MB
    # of resident memory that a protocol run, writing no report, need not pay
    from xml.sax.saxutils import escape

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
            f'font-family="monospace">{escape(label)}</text>'
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
