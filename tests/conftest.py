import os

import pytest
from hypothesis import settings

from signrec.config import Config
from signrec.pipeline import extract_corpus
from signrec.synth import SynthSpec, generate_synthetic_corpus

JOBS = max(1, min(8, os.cpu_count() or 1))

# Property tests draw the same examples on every run and have no per-example
# deadline, so a loaded host neither changes nor fails them.
settings.register_profile("signrec", derandomize=True, deadline=None)
settings.load_profile("signrec")


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """3 classes x 2 signers x 3 samples at low resolution, for protocol and
    CLI tests where recognition quality is irrelevant."""
    root = tmp_path_factory.mktemp("tiny_corpus")
    spec = SynthSpec(num_classes=3, num_signers=2, samples=3, frames=18,
                     width=96, height=72)
    manifest = generate_synthetic_corpus(spec, 101, root)
    return root, manifest


@pytest.fixture(scope="session")
def tiny_extracted(tiny_corpus):
    root, _ = tiny_corpus
    cfg = Config()
    return extract_corpus(root / "manifest.tsv", cfg, cache_dir=root / "cache",
                          jobs=JOBS), cfg
