"""signrec benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload extract --seed 1 --seconds 10 --trace 0

Run from the repository root.  The corpus is rendered from ``--seed``; the
program under test (``src/signrec``) receives only the rendered files.
Before the result it prints a header line (host, versions, corpus), one
``name value unit`` line per figure and a ``samples`` line with every timing
the run took; the last line is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  The exit code is 1 when a correctness check failed and 2
when the program could not be found.  Scratch files live in ``.bench_work/``,
which also keeps the spans of the last traced run of each workload and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def git_commit():
    """The checked-out commit, or None outside a git checkout."""
    try:
        # The ceiling keeps git from reporting a repository that merely
        # encloses a plain (non-git) checkout.
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_probe():
    """Fixed pure-Python and numpy work, median of 3 timings each (ms)."""
    import numpy as np

    def python_loop():
        total = 0
        for i in range(200_000):
            total += i * i
        return total

    matrix = np.random.default_rng(0).standard_normal((160, 160))

    def numpy_work():
        for _ in range(20):
            np.exp(matrix @ matrix / 160.0).sum()

    def timed(fn):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            fn()
            times.append(1e3 * (time.perf_counter() - start))
        return round(statistics.median(times), 3)

    return {"python_loop_ms": timed(python_loop), "numpy_ms": timed(numpy_work)}


def header(args, spec):
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "blas_threads": 1,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": git_commit(),
        "corpus": spec, "host_probe": host_probe(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "signrec" / "__init__.py").is_file():
        print(f"error: the program source {SRC / 'signrec'} is missing",
              file=sys.stderr)
        return 2
    # The single-threaded baseline: numpy's BLAS gets one thread, like the
    # program's own jobs=1.  Unpinned, OpenBLAS oversubscribes a small
    # shared host and becomes the larger part of the noise.  This must
    # happen before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")

    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run = bench.BenchRun(args.workload, args.seed, work, trace=bool(args.trace))
    try:
        run.execute(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # The metrics come before the header: peak_rss_mb counts children, and
    # the git child that header() starts would count with the RSS it
    # inherits from this process.
    metrics, lines = {}, {}
    if run.correct:
        if args.trace:
            values, units = run.per_layer(), bench.PER_LAYER
        else:
            values, units = run.end_to_end(), bench.END_TO_END
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name in units}
        lines = {} if args.trace else run.named()
        lines.update((name, (entry["value"], entry["unit"]))
                     for name, entry in metrics.items() if name not in lines)
    head = header(args, run.settings.spec)
    print("header " + json.dumps(head, sort_keys=True))
    for name, (value, unit) in lines.items():
        print(f"{name} {value:.6g} {unit}")
    samples = {"setup_s": run.setup_s, "cold_s": run.cold_s, "warm_s": run.warm_s,
               "iter_s": run.iter_s, "traced_iter_s": run.traced_iter_s}
    print("samples " + json.dumps(samples))
    if args.trace:
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        WORK.mkdir(exist_ok=True)
        with spans_path.open("w") as out:
            out.write(json.dumps({"header": head, "metrics": metrics}) + "\n")
            for span in run.tracer.spans:
                out.write(json.dumps(span) + "\n")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
