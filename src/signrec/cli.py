"""Command-line entry point.

Verbs: synth, segment, extract, train, eval-sd, eval-si, report. Each takes
--out <dir>; synth takes --seed <int>; the verbs that read a corpus take
--data <manifest> and --config <file>, and all of those but segment take
--jobs <n>.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import Config
from .dataio import read_text
from .evaluation import (EvalReport, emit_report, prepare_dataset, run_sd_loocv,
                         run_si_loso, train_recognizer)
from .features import FeatureSetSpec
from .pipeline import extract_corpus, general_skin_model, load_right_handed
from .segmentation import SequenceSegmenter
from .synth import SynthSpec, generate_synthetic_corpus


def _int_at_least(low):
    """An argparse type: an int that is at least `low`."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is not at least {low}")
        return value
    parse.__name__ = "int"     # argparse names the type in "invalid int value"
    return parse


def _load_config(args) -> Config:
    """The --config file's settings, or the defaults without one; a verb's
    --jobs flag overrides `jobs`."""
    cfg = Config.load(args.config) if args.config else Config()
    cfg.jobs = getattr(args, "jobs", None) or cfg.jobs
    return cfg


# the synth flags that set one SynthSpec field, taking its type and default
_SYNTH_FLAGS = (("--classes", "num_classes"), ("--signers", "num_signers"),
                ("--samples", "samples"), ("--width", "width"), ("--height", "height"),
                ("--frames", "frames"), ("--style", "style_strength"),
                ("--traj-noise", "traj_noise"))


def _cmd_synth(args):
    left_handed = tuple(int(v) for v in args.left_handed.split(",") if v != "")
    spec = SynthSpec(**{field: getattr(args, field) for _, field in _SYNTH_FLAGS},
                     left_handed=left_handed, depth_pairs=args.depth_pairs)
    manifest = generate_synthetic_corpus(spec, args.seed, args.out)
    print(f"wrote {len(manifest.entries)} sequences to {args.out}")
    return 0


def _cmd_segment(args):
    cfg = _load_config(args)
    root, out = Path(args.data).parent, Path(args.out) / args.sample
    SequenceSegmenter(general_skin_model(root), cfg).dump(
        load_right_handed(root / args.sample), out)
    print(f"wrote frames.pgm, candidates.pgm and hands.pgm to {out}")
    return 0


def _extracted(args, cfg):
    return extract_corpus(args.data, cfg, cache_dir=Path(args.out) / "features")


def _cmd_extract(args):
    extracted = _extracted(args, _load_config(args))
    print(f"extracted {len(extracted)} samples into {Path(args.out) / 'features'}")
    return 0


def _prepared(args):
    """(config, feature set, prepared samples): the prologue of the verbs
    that train on the extracted corpus."""
    cfg = _load_config(args)
    spec = FeatureSetSpec.parse(args.set)
    return cfg, spec, prepare_dataset(_extracted(args, cfg), spec, cfg)


def _cmd_train(args):
    cfg, spec, prepared = _prepared(args)
    out = Path(args.out)
    transform, bank = train_recognizer(prepared, cfg, args.lda_dims)
    if transform is not None:
        transform.feature_spec = spec.name
        transform.save(out / "transform.npz")
    bank.feature_spec = spec.name
    bank.save(out / "bank")
    print(f"trained {len(bank.vocabulary)} models into {out / 'bank'}")
    return 0


def _cmd_eval_sd(args):
    cfg, spec, prepared = _prepared(args)
    report = run_sd_loocv(prepared, cfg, feature_spec_name=spec.name)
    emit_report(report, args.out)
    print(f"SD-LOOCV mean accuracy {report.mean_accuracy:.4f} -> {args.out}")
    return 0


def _cmd_eval_si(args):
    cfg, spec, prepared = _prepared(args)
    report = run_si_loso(prepared, cfg, lda_dims=args.lda_dims, feature_spec_name=spec.name)
    emit_report(report, args.out)
    print(f"SI-LOSO mean accuracy {report.mean_accuracy:.4f} -> {args.out}")
    return 0


def _cmd_report(args):
    report = EvalReport.from_json(read_text(args.report), args.report)
    emit_report(report, args.out)
    print(f"re-rendered report into {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="signrec",
                                     description="isolated sign recognition toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, func, summary, corpus=False, jobs=False):
        """A verb's parser with --out, plus --data and --config for a verb
        that reads a corpus, and --jobs for one that maps over it."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--out", required=True, help="output directory")
        if corpus:
            p.add_argument("--data", required=True, help="manifest path")
            p.add_argument("--config", help="key=value configuration file")
        if jobs:
            p.add_argument("--jobs", type=_int_at_least(1), default=None)
        return p

    # each synth flag defaults to the SynthSpec field it sets
    spec = SynthSpec()
    p = verb("synth", _cmd_synth, "generate a synthetic corpus")
    p.add_argument("--seed", type=int, default=0)
    for flag, field in _SYNTH_FLAGS:
        value = getattr(spec, field)
        p.add_argument(flag, dest=field, type=type(value), default=value)
    p.add_argument("--left-handed", default=",".join(map(str, spec.left_handed)),
                   help="comma-separated signer indices")
    p.add_argument("--depth-pairs", action="store_true", default=spec.depth_pairs)

    p = verb("segment", _cmd_segment, "dump one sample's gray frames and masks", corpus=True)
    p.add_argument("--sample", required=True, help="sequence directory name")

    verb("extract", _cmd_extract, "extract and cache feature samples", corpus=True, jobs=True)

    p = verb("train", _cmd_train, "train a model bank on the whole corpus",
             corpus=True, jobs=True)
    p.add_argument("--set", default="pos,S,HOG")
    p.add_argument("--lda-dims", type=_int_at_least(0), default=0)

    p = verb("eval-sd", _cmd_eval_sd, "signer-dependent leave-one-sample-out",
             corpus=True, jobs=True)
    p.add_argument("--set", default="pos,S,HOG")

    p = verb("eval-si", _cmd_eval_si, "signer-independent leave-one-signer-out",
             corpus=True, jobs=True)
    p.add_argument("--set", default="pos,S")
    p.add_argument("--lda-dims", type=_int_at_least(0), default=0)

    p = verb("report", _cmd_report, "re-render report files from report.json")
    p.add_argument("--report", required=True)
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line machine-parsable failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
