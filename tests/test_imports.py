"""Extraction and the signer-dependent protocol run without scipy.

scipy serves one call of the package, the generalized eigensolve of
`signerlda.solve_transform`, which imports it on first use. Imported at a
module top, it would add its resident memory and import time to every
process, so a fresh interpreter runs the extraction and SD path and then
lists the scipy modules it holds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import signrec
from signrec.signerlda import solve_transform

SCRIPT = """
import json, sys
from pathlib import Path

import numpy as np

import signrec.cli
from signrec.config import Config
from signrec.evaluation import prepare_dataset, run_sd_loocv
from signrec.features import FeatureSetSpec
from signrec.pipeline import extract_corpus
from signrec.signerlda import solve_transform
from signrec.synth import SynthSpec, generate_synthetic_corpus

root = Path(sys.argv[1])
spec = SynthSpec(num_classes=2, num_signers=1, samples=2, frames=12, width=64, height=48)
generate_synthetic_corpus(spec, 3, root)
cfg = Config(hmm_states=2, hmm_max_iter=2)
extracted = extract_corpus(root / "manifest.tsv", cfg, cache_dir=root / "cache")
run_sd_loocv(prepare_dataset(extracted, FeatureSetSpec.parse("pos,S,HOG"), cfg), cfg)

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

before = scipy_modules()
with np.load(sys.argv[2]) as scatter:
    between, within = scatter["between"], scatter["within"]
weights, _, _ = solve_transform(between, within, 3)
print(json.dumps({"before": before, "after": scipy_modules(),
                  "weights": weights.tobytes().hex()}))
"""


def scatters():
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal((2, 12, 6))
    return a.T @ a, b.T @ b


def test_extraction_and_sd_load_no_scipy(tmp_path):
    between, within = scatters()
    np.savez(tmp_path / "scatter.npz", between=between, within=within)
    src = str(Path(signrec.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "corpus"),
                           str(tmp_path / "scatter.npz")],
                          capture_output=True, text=True, timeout=300, check=True, env=env)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["before"] == []
    assert "scipy.linalg" in result["after"]
    weights, _, _ = solve_transform(between, within, 3)
    assert result["weights"] == weights.tobytes().hex()
