"""Command-line entry point.

Verbs: synth, segment, extract, train, eval-sd, eval-si, report.
Global flags: --config <file>, --seed <int>, --out <dir>, --jobs <n>.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import Config
from .evaluation import (EvalReport, emit_report, prepare_dataset, run_sd_loocv,
                         run_si_loso, train_recognizer)
from .features import FeatureSetSpec
from .pipeline import extract_corpus, extract_sequence, general_skin_model
from .synth import SynthSpec, generate_synthetic_corpus


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not at least 1")
    return value


def _add_common(parser):
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--jobs", type=_positive_int, default=None)


def _load_config(args) -> Config:
    cfg = Config.load(args.config) if args.config else Config()
    if args.jobs is not None:
        cfg.jobs = args.jobs
    return cfg


def _cmd_synth(args):
    spec = SynthSpec(
        num_classes=args.classes,
        num_signers=args.signers,
        samples=args.samples,
        width=args.width,
        height=args.height,
        frames=args.frames,
        style_strength=args.style,
        traj_noise=args.traj_noise,
        left_handed=tuple(int(v) for v in args.left_handed.split(",") if v != ""),
        depth_pairs=args.depth_pairs,
    )
    manifest = generate_synthetic_corpus(spec, args.seed, args.out)
    print(f"wrote {len(manifest.entries)} sequences to {args.out}")
    return 0


def _cmd_segment(args):
    cfg = _load_config(args)
    manifest_path = Path(args.data)
    model = general_skin_model(manifest_path.parent, cfg)
    extract_sequence(manifest_path.parent / args.sample, model, cfg,
                     debug_dir=Path(args.out) / args.sample)
    print(f"wrote per-frame masks to {Path(args.out) / args.sample}")
    return 0


def _extracted(args, cfg):
    return extract_corpus(
        args.data, cfg, cache_dir=Path(args.out) / "features", jobs=cfg.jobs
    )


def _cmd_extract(args):
    cfg = _load_config(args)
    extracted = _extracted(args, cfg)
    print(f"extracted {len(extracted)} samples into {Path(args.out) / 'features'}")
    return 0


def _cmd_train(args):
    cfg = _load_config(args)
    spec = FeatureSetSpec.parse(args.set)
    prepared = prepare_dataset(_extracted(args, cfg), spec, cfg)
    by_class: dict[str, list] = {}
    posxy: dict[str, list] = {}
    for s in prepared:
        by_class.setdefault(s.label, []).append(s.frames)
        posxy.setdefault(s.label, []).append(s.posxy)
    out = Path(args.out)
    transform, bank = train_recognizer(by_class, posxy, cfg, args.lda_dims, spec.name)
    if transform is not None:
        transform.save(out / "transform.npz")
    bank.save(out / "bank")
    print(f"trained {len(bank.vocabulary)} models into {out / 'bank'}")
    return 0


def _cmd_eval_sd(args):
    cfg = _load_config(args)
    spec = FeatureSetSpec.parse(args.set)
    prepared = prepare_dataset(_extracted(args, cfg), spec, cfg)
    report = run_sd_loocv(prepared, cfg, feature_spec_name=spec.name, jobs=cfg.jobs)
    emit_report(report, args.out)
    print(f"SD-LOOCV mean accuracy {report.mean_accuracy:.4f} -> {args.out}")
    return 0


def _cmd_eval_si(args):
    cfg = _load_config(args)
    spec = FeatureSetSpec.parse(args.set)
    prepared = prepare_dataset(_extracted(args, cfg), spec, cfg)
    report = run_si_loso(
        prepared, cfg, lda_dims=args.lda_dims, feature_spec_name=spec.name,
        jobs=cfg.jobs,
    )
    emit_report(report, args.out)
    print(f"SI-LOSO mean accuracy {report.mean_accuracy:.4f} -> {args.out}")
    return 0


def _cmd_report(args):
    report = EvalReport.from_json(Path(args.report).read_text(), args.report)
    emit_report(report, args.out)
    print(f"re-rendered report into {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="signrec",
                                     description="isolated sign recognition toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    _add_common(p)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--signers", type=int, default=4)
    p.add_argument("--samples", type=int, default=6)
    p.add_argument("--width", type=int, default=160)
    p.add_argument("--height", type=int, default=120)
    p.add_argument("--frames", type=int, default=36)
    p.add_argument("--style", type=float, default=0.0)
    p.add_argument("--traj-noise", type=float, default=0.5)
    p.add_argument("--left-handed", default="", help="comma-separated signer indices")
    p.add_argument("--depth-pairs", action="store_true")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("segment", help="dump per-frame masks for one sample")
    _add_common(p)
    p.add_argument("--data", required=True, help="manifest path")
    p.add_argument("--sample", required=True, help="sequence directory name")
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("extract", help="extract and cache feature samples")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("train", help="train a model bank on the whole corpus")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--set", default="pos,S,HOG")
    p.add_argument("--lda-dims", type=int, default=0)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval-sd", help="signer-dependent leave-one-sample-out")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--set", default="pos,S,HOG")
    p.set_defaults(func=_cmd_eval_sd)

    p = sub.add_parser("eval-si", help="signer-independent leave-one-signer-out")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--set", default="pos,S")
    p.add_argument("--lda-dims", type=int, default=0)
    p.set_defaults(func=_cmd_eval_si)

    p = sub.add_parser("report", help="re-render report files from report.json")
    _add_common(p)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_report)
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
