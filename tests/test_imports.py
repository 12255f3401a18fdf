"""The package runs without scipy, and a serial run without multiprocessing.

scipy is an oracle of the tests only: loading `scipy.linalg` would add about
27 MB of resident memory and 0.1 s of start-up to a process. Only a parallel
map loads `multiprocessing`. A fresh interpreter runs extraction, the
signer-dependent protocol and the signer-independent protocol with LDA at
one job, then lists the scipy modules it holds and says whether it holds
`multiprocessing`.
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
from signrec.evaluation import prepare_dataset, run_sd_loocv, run_si_loso
from signrec.features import FeatureSetSpec
from signrec.pipeline import extract_corpus
from signrec.signerlda import solve_transform
from signrec.synth import SynthSpec, generate_synthetic_corpus

root = Path(sys.argv[1])
spec = SynthSpec(num_classes=2, num_signers=2, samples=2, frames=12, width=64, height=48)
generate_synthetic_corpus(spec, 3, root)
cfg = Config(hmm_states=2, hmm_max_iter=2)
extracted = extract_corpus(root / "manifest.tsv", cfg, cache_dir=root / "cache")
prepared = prepare_dataset(extracted, FeatureSetSpec.parse("pos,S,HOG"), cfg)
run_sd_loocv(prepared, cfg)
run_si_loso(prepared, cfg, lda_dims=2)
with np.load(sys.argv[2]) as scatter:
    between, within = scatter["between"], scatter["within"]
weights, _ = solve_transform(between, within, 3, 1e-3)
print(json.dumps({"scipy": sorted(name for name in sys.modules
                                  if name.split(".")[0] == "scipy"),
                  "multiprocessing": "multiprocessing" in sys.modules,
                  "weights": weights.tobytes().hex()}))
"""


def scatters():
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal((2, 12, 6))
    return a.T @ a, b.T @ b


def test_no_protocol_loads_scipy(tmp_path):
    between, within = scatters()
    np.savez(tmp_path / "scatter.npz", between=between, within=within)
    src = str(Path(signrec.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "corpus"),
                           str(tmp_path / "scatter.npz")],
                          capture_output=True, text=True, timeout=300, check=True, env=env)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["scipy"] == []
    assert not result["multiprocessing"]
    weights, _ = solve_transform(between, within, 3, 1e-3)
    assert result["weights"] == weights.tobytes().hex()
