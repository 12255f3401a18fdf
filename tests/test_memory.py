"""Rendering and extraction hold one frame at a time, and hashing a
recording holds a small part of one.

tracemalloc sees numpy's buffers, so its peak bounds what a run holds. A
decoded recording is frames x H x W x 5 bytes (3 color bytes and one 16-bit
depth reading per pixel); neither the renderer nor the extractor may come
near holding one, whatever the recording's length.

Each peak is taken after an unmeasured run of the same work has made the
imports (such as numpy's lazily loaded `numpy.random`) and built the cached
tables (such as the descriptors' resize tables) that come with first use,
so it counts what the work holds, not what a process loads once, whatever
ran before it.
"""

import dataclasses
import hashlib
import tracemalloc

import pytest

from signrec.config import Config
from signrec.dataio import load_sequence
from signrec.pipeline import _sequence_key, extract_sequence, general_skin_model
from signrec.synth import SynthSpec, generate_synthetic_corpus

# long recordings at the bench's resolution and at the sensor's; the signer
# is left-handed, so both the renderer and the extractor mirror every frame.
# At 640 x 480 the render peaks near 22 MB whatever the length, more than a
# 14-frame recording holds, so that corpus is 36 frames long.
SPEC = SynthSpec(num_classes=2, num_signers=1, samples=1, frames=96, width=160,
                 height=120, left_handed=(0,))
SENSOR_SPEC = dataclasses.replace(SPEC, frames=36, width=640, height=480)


def peak_bytes(work):
    """Bytes allocated at the peak of `work()` above what was held before."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        work()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


def recording_bytes(seq):
    h, w = seq.color_frames[0].shape[:2]
    return len(seq) * h * w * 5


@pytest.fixture(scope="module", params=[SPEC, SENSOR_SPEC], ids=["160x120", "640x480"])
def corpus(request, tmp_path_factory):
    """The recording directories and the peak of rendering them."""
    spec = request.param
    generate_synthetic_corpus(dataclasses.replace(spec, frames=12), 5,
                              tmp_path_factory.mktemp("warm_up"))
    root = tmp_path_factory.mktemp("long_corpus")
    peak = peak_bytes(lambda: generate_synthetic_corpus(spec, 5, root))
    return sorted(p for p in root.iterdir() if p.is_dir()), peak


def test_render_holds_less_than_a_recording(corpus):
    recordings, peak = corpus
    smallest = min(recording_bytes(load_sequence(p)) for p in recordings)
    assert peak < smallest, (peak, smallest)


def test_extraction_holds_less_than_a_recording(corpus):
    recordings, _ = corpus
    cfg = Config()
    model = general_skin_model(recordings[0].parent)
    seq = load_sequence(recordings[0])
    assert seq.handedness == "left"
    extract_sequence(recordings[0], model, cfg)
    peak = peak_bytes(lambda: extract_sequence(recordings[0], model, cfg))
    assert peak < recording_bytes(seq), (peak, recording_bytes(seq))


def test_sequence_key_holds_a_tenth_of_a_stream(corpus):
    """A stream holds a whole recording, so the cache key reads it in chunks."""
    recordings, _ = corpus
    digest = hashlib.sha256(b"corpus")
    key = _sequence_key(recordings[0], digest)
    peak = peak_bytes(lambda: _sequence_key(recordings[0], digest))
    stream = (recordings[0] / "color.ppm").stat().st_size
    assert peak < stream / 10, (peak, stream)
    assert _sequence_key(recordings[0], digest) == key
