"""Self-test of the benchmark on a tiny corpus; takes about a minute.

    python3 perfbench/selftest.py

Runs every workload end to end, untraced and traced, and checks that:
every metric listed in BENCHMARK.json is produced, finite and carries the
listed unit, and end-to-end metrics are above 0; each workload reaches the
layers it is meant to and no others; two traced runs of one seed give
identical work counts; and the command exits non-zero without a result when
the program's source is absent.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile

import run

sys.path.insert(0, str(run.SRC))

import bench  # noqa: E402

TINY = dict(num_classes=3, num_signers=2, samples=2, frames=18, width=96,
            height=72, style_strength=1.6, left_handed=(1,))
# Two samples per class and signer cannot reach the recognition floors;
# those are enforced on the bench corpus.
SETTINGS = bench.Settings(spec=TINY, sd_floor=0.0, si_floor=0.0)

# Layers each workload must reach (a call count > 0) or must not (== 0).
REACHES = {
    "extract": ("dataio.load_sequence_calls", "tracking.predict_calls",
                "pipeline.cache_hits"),
    "sd_loocv": ("dataio.load_sequence_calls", "hmm.baum_welch_calls",
                 "hmm.forward_calls"),
    "si_loso_lda": ("dataio.load_sequence_calls", "hmm.baum_welch_calls",
                    "signerlda.dtw_align_calls"),
}
SKIPS = {
    "extract": ("hmm.baum_welch_calls", "signerlda.dtw_align_calls"),
    "sd_loocv": ("signerlda.dtw_align_calls",),
    "si_loso_lda": (),
}


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def check_table(declared, produced, units, what):
    check(set(declared) == set(units),
          f"{what}: BENCHMARK.json lists {sorted(declared)}, the benchmark {sorted(units)}")
    for name, unit in declared.items():
        check(units[name] == unit, f"{what} {name}: unit {units[name]!r}, declared {unit!r}")
        value = produced[name]
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{what} {name} = {value!r} is not a finite number")


def run_once(workload, work, trace):
    result = bench.BenchRun(workload, 5, work, SETTINGS, trace=trace)
    result.execute(0)
    check(result.correct, f"{workload}: {result.failed} of {result.attempted} units failed")
    return result


def main():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    check({w["name"] for w in declared["workloads"]} == set(bench.WORKLOADS),
          "BENCHMARK.json workloads differ from the benchmark's")
    run.WORK.mkdir(exist_ok=True)
    work = run.WORK / "selftest"
    try:
        for workload in bench.WORKLOADS:
            plain = run_once(workload, work, trace=False)
            e2e = plain.end_to_end()
            check_table(end_to_end, e2e, bench.END_TO_END, f"{workload} end-to-end")
            check(all(v > 0 for v in e2e.values()), f"{workload}: a 0 end-to-end metric")

            traced = [run_once(workload, work, trace=True).per_layer() for _ in range(2)]
            check_table(per_layer, traced[0], bench.PER_LAYER, f"{workload} per-layer")
            for name in bench.EXACT_COUNTS:
                check(traced[0][name] == traced[1][name],
                      f"{workload} {name}: {traced[0][name]} then {traced[1][name]}")
            for name in REACHES[workload]:
                check(traced[0][name] > 0, f"{workload} does not reach {name}")
            for name in SKIPS[workload]:
                check(traced[0][name] == 0, f"{workload} should not reach {name}")
            print(f"ok {workload}")
        check_without_program()
        print("ok command without the program")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def check_without_program():
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, no result."""
    with tempfile.TemporaryDirectory(dir=run.WORK) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "extract",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    check(done.returncode != 0, "the command succeeded without the program")
    check('"correct"' not in done.stdout, "the command printed a result without the program")


if __name__ == "__main__":
    sys.exit(main())
