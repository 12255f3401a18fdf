"""The benchmark's tracer patches signrec's functions by name and reads their
arguments by name; these tests fail when a refactor moves or renames one."""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from signrec import hmm, signerlda
from signrec.config import Config

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# span name -> the arguments its counter reads
COUNTED_ARGUMENTS = {
    "dataio.load_sequence": {"path"},
    "signerlda.dtw_align": {"ref", "query"},
    "hmm.baum_welch": {"model", "samples", "max_iter", "tol"},
    "hmm.forward_loglik": {"frames"},
}


def test_every_target_resolves(tracing):
    targets = tracing._targets()
    assert targets
    for owner, attr, name, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r}.{attr} missing"


def test_counted_arguments_are_parameters(tracing):
    by_name = {name: getattr(owner, attr) for owner, attr, name, _ in tracing._targets()}
    for name, wanted in COUNTED_ARGUMENTS.items():
        parameters = set(inspect.signature(by_name[name]).parameters)
        assert wanted <= parameters, f"{name} lacks {sorted(wanted - parameters)}"


def test_traced_calls_record_their_counts(tracing):
    """A training and a scoring run under the tracer record the spans and
    work counts that ``--trace 1`` reports."""
    rng = np.random.default_rng(0)
    samples = {label: [rng.normal(size=(12, 2)) for _ in range(2)] for label in "ab"}
    tracer = tracing.Tracer()
    with tracer.installed("check"):
        signerlda.dtw_align(samples["a"][0], samples["b"][0][:9])
        bank = hmm.train_bank(samples, Config(hmm_states=3, hmm_max_iter=2))
        bank.classify(samples["a"][0])
    spans = {}
    for span in tracer.spans:
        spans.setdefault(span["name"], []).append(span)
    assert [s["cells"] for s in spans["signerlda.dtw_align"]] == [12 * 9]
    assert [s["em_frames"] for s in spans["hmm.baum_welch"]] == [2 * 24, 2 * 24]
    assert [s["frames"] for s in spans["hmm.forward_loglik"]] == [12, 12]
    assert [s["unscorable"] for s in spans["hmm.classify"]] == [0]
    # the patches are undone
    assert hmm.baum_welch.__module__ == "signrec.hmm"
