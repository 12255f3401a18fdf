"""The extraction kernels against their earlier implementations.

`reference_kernels` keeps the plainer code each kernel replaced. Every
comparison here is exact (`np.array_equal`, `==`), because extraction
promises bit-identical features, segmentation and cache keys.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_kernels as ref
from signrec import features, pipeline, segmentation, synth, tracking
from signrec.config import Config
from signrec.features import (
    convex_hull,
    geometric_features,
    hog,
    hu_moments,
    resize_bilinear,
    shape_context,
)
from signrec.segmentation import clean_mask, mean, median, rg_bins
from signrec.synth import SynthSpec, generate_synthetic_corpus

masks = hnp.arrays(np.bool_, st.tuples(st.integers(1, 20), st.integers(1, 20)))


def same_blobs(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.bbox == b.bbox and a.area == b.area and a.centroid == b.centroid
        assert np.array_equal(a.mask, b.mask)


class TestChromaticityTable:
    @pytest.mark.parametrize("bins", [8, 32, 50])
    def test_every_colour_bins_as_the_formula(self, bins):
        # all 2^24 colours, 4 red values (262,144 pixels) at a time
        green_blue = np.stack(np.meshgrid(np.arange(256), np.arange(256), indexing="ij"),
                              axis=-1).reshape(-1, 2)
        pixels = np.empty((4, 256 * 256, 3), dtype=np.uint8)
        pixels[..., 1:] = green_blue
        for red in range(0, 256, 4):
            pixels[..., 0] = np.arange(red, red + 4)[:, None]
            got = rg_bins(pixels, bins)
            want = ref.rg_bins(pixels, bins)
            assert got.dtype == want.dtype and np.array_equal(got, want), red

    def test_integer_pixel_lists_of_any_dtype(self):
        rng = np.random.default_rng(3)
        pixels = rng.integers(0, 256, (500, 3))
        for dtype in (np.uint8, np.int64, np.float64):
            assert np.array_equal(rg_bins(pixels.astype(dtype), 32), ref.rg_bins(pixels, 32))


class TestCroppedLabelling:
    def test_random_masks_match_whole_frame_labelling(self):
        rng = np.random.default_rng(11)
        for shape in ((1, 1), (3, 5), (24, 24), (40, 31), (120, 160)):
            for density in (0.0, 0.05, 0.3, 0.6, 0.9, 1.0):
                skin = rng.random(shape) < density
                motion = rng.random(shape) < 0.8
                for min_area in (1, 30):
                    same_blobs(clean_mask(skin & motion, min_area),
                               ref.clean_mask(skin, motion, min_area))

    def test_empty_mask(self):
        assert clean_mask(np.zeros((12, 16), dtype=bool), min_area=1) == []

    def test_blobs_on_every_border(self):
        skin = np.zeros((30, 40), dtype=bool)
        skin[0:4, 10:16] = True        # top
        skin[26:30, 20:27] = True      # bottom
        skin[12:18, 0:3] = True        # left
        skin[5:11, 37:40] = True       # right
        skin[0:3, 0:3] = True          # top-left corner
        skin[27:30, 37:40] = True      # bottom-right corner
        blobs = clean_mask(skin, min_area=1)
        assert len(blobs) == 6
        same_blobs(blobs, ref.clean_mask(skin, min_area=1))
        # one blob away from the borders, so the crop starts inside the frame
        inner = np.zeros((30, 40), dtype=bool)
        inner[9:17, 21:33] = True
        inner[14:20, 5:9] = True
        same_blobs(clean_mask(inner, min_area=1), ref.clean_mask(inner, min_area=1))

    @settings(max_examples=150)
    @given(masks)
    def test_property(self, mask):
        same_blobs(clean_mask(mask, min_area=1), ref.clean_mask(mask, min_area=1))


class TestKalmanUpdate:
    @pytest.mark.parametrize("n", [6, 4])
    def test_random_spd_covariances_match_the_h_form(self, n):
        rng = np.random.default_rng(n)
        H = np.eye(2, n)
        for _ in range(2000):
            A = rng.normal(size=(n, n)) * rng.uniform(0.01, 100.0)
            P = A @ A.T + 1e-3 * np.eye(n)
            P = (P + P.T) / 2.0
            x = 50.0 * rng.normal(size=n)
            z = 50.0 * rng.normal(size=2)
            r = rng.uniform(0.1, 10.0)
            got = tracking._kf_update(x, P, z, r)
            want = ref.kf_update(x, P, H, z, r)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()


class TestResizeTables:
    def test_every_crop_shape(self):
        rng = np.random.default_rng(5)
        for h, w in itertools.product(range(2, 25), repeat=2):
            crop = rng.random((h, w)) * 255.0
            crop[rng.random((h, w)) < 0.3] = 0.0
            got = resize_bilinear(crop, 32, 32)
            assert np.array_equal(got, ref.resize_bilinear(crop, 32, 32)), (h, w)

    def test_other_output_sizes(self):
        rng = np.random.default_rng(6)
        for (h, w), (oh, ow) in itertools.product([(2, 3), (7, 5), (40, 33)],
                                                  [(1, 1), (5, 9), (32, 32), (64, 17)]):
            crop = rng.random((h, w))
            assert np.array_equal(resize_bilinear(crop, oh, ow),
                                  ref.resize_bilinear(crop, oh, ow))

    def test_hog(self):
        rng = np.random.default_rng(7)
        for h, w in itertools.product((1, 2, 3, 9, 18, 24), repeat=2):
            crop = rng.random((h, w)) * 255.0 * (rng.random((h, w)) < 0.8)
            assert np.array_equal(hog(crop), ref.hog(crop)), (h, w)


def blob_masks():
    """Hand-like masks: filled ellipses, rings, lines and random blobs."""
    rng = np.random.default_rng(21)
    out = []
    for h, w in ((1, 1), (1, 7), (6, 1), (2, 2), (12, 9), (18, 14), (24, 20)):
        ys, xs = np.mgrid[0:h, 0:w]
        out.append(((xs - (w - 1) / 2) / (w / 2 + 0.3)) ** 2
                   + ((ys - (h - 1) / 2) / (h / 2 + 0.3)) ** 2 <= 1.0)
        out.append(rng.random((h, w)) < 0.6)
    ring = np.ones((15, 15), dtype=bool)
    ring[4:11, 4:11] = False
    out.append(ring)
    out.append(np.eye(9, dtype=bool))
    return out


class TestShapeKernels:
    def test_shape_context_on_blobs(self):
        for mask in blob_masks():
            assert np.array_equal(shape_context(mask), ref.shape_context(mask))

    @settings(max_examples=200)
    @given(masks)
    def test_shape_context_property(self, mask):
        assert np.array_equal(shape_context(mask), ref.shape_context(mask))

    @settings(max_examples=200)
    @given(masks)
    def test_geometric_and_hu_property(self, mask):
        points = features._mask_points(mask)
        want = ref.geometric_features(mask, eccentricity_as_printed=True)
        assert np.array_equal(geometric_features(mask), want)
        assert np.array_equal(geometric_features(mask, points), want)
        want = ref.hu_moments(mask)
        assert np.array_equal(hu_moments(mask), want)
        assert np.array_equal(hu_moments(mask, points), want)

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), max_size=40))
    def test_convex_hull_property(self, points):
        assert convex_hull(points) == ref.convex_hull(points)


class TestReductions:
    def test_mean_and_median_equal_numpy(self):
        rng = np.random.default_rng(8)
        for n in range(1, 200):
            values = rng.random(n) * 1000.0
            assert median(values) == float(np.median(values))
            assert mean(values) == float(values.mean())
            ints = rng.integers(0, 100, n)
            assert mean(ints) == float(ints.mean())
            ties = rng.integers(0, 3, n).astype(np.float64)
            assert median(ties) == float(np.median(ties))


class TestRenderAndKey:
    def test_ellipse_mask_matches_full_frame(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            h, w = rng.integers(1, 60, size=2)
            center = rng.uniform(-20, 80, size=2)
            axes = rng.uniform(0.3, 30, size=2)
            angle = rng.uniform(-math.pi, math.pi)
            box, inside = synth._ellipse_mask((h, w), center, axes, angle)
            frame = np.zeros((h, w), dtype=bool)
            assert frame[box].shape == inside.shape
            frame[box] = inside
            _, expected = ref.ellipse_mask((h, w), center, axes, angle)
            assert np.array_equal(frame, expected)

    def test_sequence_key_matches_pathlib(self, tmp_path):
        """On a recording and its ground truth, the key is the one earlier
        versions gave; files beside them change only the earlier key."""
        seq = tmp_path / "seq"
        seq.mkdir()
        files = {"meta.txt": b"fps 30\n", "color.ppm": b"P6 1 1 255\n\x01\x02\x03",
                 "gt_traj.txt": b"1 2 3\n", "depth.pgm": b"P5 1 1 65535\n\x00\x10",
                 "skeleton.txt": b"0 neck 1 2 3\n", "gt_right.pgm": b"x"}
        for name, data in files.items():
            (seq / name).write_bytes(data)
        digest = hashlib.sha256(b"corpus")
        key = pipeline._sequence_key(seq, digest)
        assert key == ref.sequence_key(seq, digest)
        assert key == pipeline._sequence_key(str(seq), digest)
        (seq / "gt_traj.txt").write_bytes(b"changed")
        for name, data in {"Zeta.txt": b"", "a_b.txt": b"ab", "10.txt": b"ten",
                           "frames.pgm": b"P5 1 1 255\n\x00"}.items():
            (seq / name).write_bytes(data)
        assert pipeline._sequence_key(seq, digest) == key != ref.sequence_key(seq, digest)
        (seq / "meta.txt").write_bytes(b"fps 25\n")
        assert pipeline._sequence_key(seq, digest) != key


# Reference kernels patched over the attributes extraction looks them up by.
REFERENCE_PATCHES = [
    (synth, "_ellipse_mask", ref.ellipse_mask),
    (segmentation, "rg_bins", ref.rg_bins),
    (segmentation, "clean_mask", ref.clean_mask),
    (segmentation, "median", ref.median),
    (features, "resize_bilinear", ref.resize_bilinear),
    (features, "shape_context", ref.shape_context),
    (features, "hog", ref.hog),
    (features, "geometric_features", ref.geometric_features),
    (features, "hu_moments", ref.hu_moments),
    (features, "convex_hull", ref.convex_hull),
    (pipeline, "_sequence_key", ref.sequence_key),
]


def corpus_files(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_extraction_with_reference_kernels_is_bit_identical(tmp_path, monkeypatch):
    """Render and extract one small corpus with the shipped kernels, then
    again with every reference kernel patched in: corpus bytes, cache record
    names (their keys) and feature matrices must be identical."""
    spec = SynthSpec(num_classes=3, num_signers=2, samples=1, frames=24, width=160,
                     height=120, style_strength=1.6, left_handed=(1,))
    runs = {}
    for name in ("shipped", "reference"):
        if name == "reference":
            for owner, attribute, kernel in REFERENCE_PATCHES:
                monkeypatch.setattr(owner, attribute, kernel)
        root = tmp_path / name / "corpus"
        generate_synthetic_corpus(spec, 2024, root)
        extracted = pipeline.extract_corpus(root / "manifest.tsv", Config(),
                                            cache_dir=tmp_path / name / "cache", jobs=1)
        runs[name] = (corpus_files(root), sorted((tmp_path / name / "cache").iterdir()),
                      extracted)
    shipped, reference = runs["shipped"], runs["reference"]
    assert shipped[0] == reference[0]
    assert [p.name for p in shipped[1]] == [p.name for p in reference[1]]
    assert len(shipped[1]) == 6
    for a, b in zip(shipped[1], reference[1]):
        assert features.load_sample(a).tobytes() == features.load_sample(b).tobytes()
    assert len(shipped[2]) == len(reference[2]) == 6
    for (entry_a, a), (entry_b, b) in zip(shipped[2], reference[2]):
        assert entry_a.path == entry_b.path
        assert a.frames.dtype == b.frames.dtype and np.array_equal(a.frames, b.frames)
