import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from reference_kernels import reference_segment
from signrec.config import Config
from signrec.dataio import (SKIN_FILES, SkeletonPose, load_sequence, mirror_sequence,
                            parse_pixel_list, shoulder_distance)
from signrec.pipeline import general_skin_model
from signrec.segmentation import (
    BLOB_WEIGHT,
    FACE_UPDATE_RATE,
    MAX_COAST,
    Blob,
    FaceDepthModel,
    SequenceSegmenter,
    SkinHistogram,
    _blob_score,
    _components,
    _open3,
    clean_mask,
    match_template,
    motion_mask,
    place_hand,
    rank_and_assign,
    resolve_face_occlusion,
    rg_bins,
    rg_normalize,
    update_adaptive_model,
)
from signrec.synth import SynthSpec, generate_synthetic_corpus
from signrec.tracking import HandTrack


class TestRgNormalize:
    def test_equal_channels(self):
        r, g = rg_normalize(np.array([100, 100, 100]))
        assert (r, g) == pytest.approx((1 / 3, 1 / 3))

    def test_pure_red(self):
        r, g = rg_normalize(np.array([255, 0, 0]))
        assert (r, g) == pytest.approx((1.0, 0.0))

    def test_black_maps_to_uninformative_point(self):
        r, g = rg_normalize(np.array([0, 0, 0]))
        assert (r, g) == pytest.approx((1 / 3, 1 / 3))

    def test_array_input(self):
        img = np.array([[[255, 0, 0], [0, 0, 0]]], dtype=np.uint8)
        r, g = rg_normalize(img)
        assert r[0, 0] == pytest.approx(1.0)
        assert r[0, 1] == pytest.approx(1 / 3)


def model_from_color(color, bins=32, count=500):
    pixels = np.tile(np.asarray(color, dtype=float), (count, 1))
    nonskin = np.tile([10.0, 10.0, 200.0], (count, 1))
    return SkinHistogram.from_pixels(pixels, nonskin, bins=bins)


class TestSkinMask:
    def test_point_mass_model_selects_exact_bin(self):
        model = model_from_color([180, 100, 70])
        frame = np.zeros((4, 4, 3), dtype=np.uint8)
        frame[0, 0] = [180, 100, 70]
        frame[1, 1] = [90, 50, 35]      # same chromaticity, same bin
        frame[2, 2] = [10, 10, 200]     # the non-skin color
        mask = model.lookup(rg_bins(frame, model.bins), threshold=1.0)
        assert mask[0, 0] and mask[1, 1]
        assert not mask[2, 2]

    def test_infinite_threshold_empty(self):
        model = model_from_color([180, 100, 70])
        frame = np.full((4, 4, 3), [180, 100, 70], dtype=np.uint8)
        assert not model.lookup(rg_bins(frame, model.bins), threshold=np.inf).any()

    def test_empty_skin_model_rejected(self):
        model = SkinHistogram(np.zeros((32, 32)), np.ones((32, 32)))
        with pytest.raises(ValueError, match="empty"):
            model.ratio_table()

    def test_bins_come_from_the_counts(self):
        assert SkinHistogram(np.zeros((16, 16)), np.ones((16, 16))).bins == 16
        # counts of 16 x 16 bins, built with no bin count named: the ratios
        # are smoothed over 256 cells and a frame is scored binned at 16
        fitted = model_from_color([180, 100, 70], bins=16)
        model = SkinHistogram(fitted.skin_counts, fitted.nonskin_counts)
        assert model.bins == 16
        cells = 16 * 16
        assert np.array_equal(model.ratio_table(),
                              ((fitted.skin_counts + 1.0) / (500 + cells))
                              / ((fitted.nonskin_counts + 1.0) / (500 + cells)))
        frame = np.zeros((2, 2, 3), dtype=np.uint8)
        frame[0, 0] = [180, 100, 70]
        frame[1, 1] = [10, 10, 200]
        mask = model.lookup(rg_bins(frame, model.bins), threshold=1.0)
        assert mask.tolist() == [[True, False], [False, False]]


def brute_force_skin(rgb, model, threshold):
    """Oracle: per-pixel chromaticity, bin and ratio test in Python floats."""
    table = model.ratio_table()
    bins = model.bins
    h, w, _ = rgb.shape
    out = np.zeros((h, w), dtype=bool)
    for y in range(h):
        for x in range(w):
            red, green, blue = (float(v) for v in rgb[y, x])
            total = red + green + blue
            r, g = (red / total, green / total) if total > 0 else (1 / 3, 1 / 3)
            ir = min(int(r * bins), bins - 1)
            ig = min(int(g * bins), bins - 1)
            out[y, x] = table[ir, ig] > threshold
    return out


class TestFrameSkinMask:
    def test_one_lookup_gives_whole_frame_mask(self):
        rng = np.random.default_rng(17)
        for bins in (8, 32):
            model = SkinHistogram.from_pixels(
                rng.integers(0, 256, (300, 3)) * [1.0, 0.6, 0.4],
                rng.integers(0, 256, (300, 3)), bins=bins)
            for _ in range(4):
                frame = rng.integers(0, 256, (9, 13, 3)).astype(np.uint8)
                frame[rng.random((9, 13)) < 0.1] = 0          # black pixels
                skin_now = model.lookup(rg_bins(frame, bins), 1.0)
                assert np.array_equal(skin_now, brute_force_skin(frame, model, 1.0))


class TestAdaptiveUpdate:
    def test_alpha_zero_keeps_model(self):
        model = model_from_color([180, 100, 70])
        updated = update_adaptive_model(model, rg_bins(np.array([[10, 200, 30]] * 5), 32),
                                        rg_bins(np.array([[1, 2, 3]] * 5), 32), 0.0)
        assert np.array_equal(updated.skin_counts, model.skin_counts)
        assert np.array_equal(updated.nonskin_counts, model.nonskin_counts)

    def test_alpha_one_replaces_model(self):
        model = model_from_color([180, 100, 70])
        pixels = np.tile([10.0, 200.0, 30.0], (7, 1))
        updated = update_adaptive_model(model, rg_bins(pixels, 32), rg_bins(pixels, 32), 1.0)
        assert np.array_equal(updated.skin_counts,
                              SkinHistogram.from_pixels(pixels, pixels, 32).skin_counts)

    def test_converges_monotonically_per_bin(self):
        # blending the same data repeatedly approaches its histogram per bin
        model = model_from_color([180, 100, 70])
        pixels = np.tile([10.0, 200.0, 30.0], (50, 1))
        target = SkinHistogram.from_pixels(pixels, pixels, 32).skin_counts
        gaps = []
        for _ in range(6):
            model = update_adaptive_model(model, rg_bins(pixels, 32), rg_bins(pixels, 32), 0.5)
            gaps.append(np.abs(model.skin_counts - target).max())
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        # direct recurrence: after k steps the residual halves each time
        assert gaps[-1] == pytest.approx(gaps[0] / 2 ** 5, rel=1e-9)

    def test_alpha_out_of_range(self):
        model = model_from_color([180, 100, 70])
        with pytest.raises(ValueError):
            update_adaptive_model(model, [], [], 1.5)


class TestMotionMask:
    def test_identical_frames_empty(self):
        gray = np.random.default_rng(0).uniform(0, 255, (8, 8))
        assert not motion_mask(gray, gray, 12.0).any()

    def test_zero_threshold_includes_any_change(self):
        a = np.zeros((4, 4))
        b = a.copy()
        b[2, 3] = 0.5
        assert motion_mask(b, a, 0.0)[2, 3]
        assert motion_mask(b, a, 0.0).sum() == 1

    def test_moving_blob_region(self):
        # blob translates: the changed region is old-union-new minus overlap
        a = np.zeros((30, 30))
        b = np.zeros((30, 30))
        a[10:20, 5:15] = 200.0
        b[10:20, 11:21] = 200.0
        mask = motion_mask(b, a, 12.0)
        expected = (a > 0) ^ (b > 0)
        inter = (mask & expected).sum()
        union = (mask | expected).sum()
        assert inter / union >= 0.7

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            motion_mask(np.zeros((4, 4)), np.zeros((5, 4)), 1.0)


def brute_force_components(mask):
    """Oracle: 8-connected labeling by breadth-first search, pure python."""
    mask = np.asarray(mask, dtype=bool)
    seen = np.zeros_like(mask)
    comps = []
    for sy, sx in zip(*np.nonzero(mask)):
        if seen[sy, sx]:
            continue
        queue = [(sy, sx)]
        seen[sy, sx] = True
        pixels = []
        while queue:
            y, x = queue.pop()
            pixels.append((y, x))
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    ny, nx = y + dy, x + dx
                    if (
                        0 <= ny < mask.shape[0]
                        and 0 <= nx < mask.shape[1]
                        and mask[ny, nx]
                        and not seen[ny, nx]
                    ):
                        seen[ny, nx] = True
                        queue.append((ny, nx))
        comps.append(sorted(pixels))
    return sorted(comps)


def brute_force_opening(mask):
    """Oracle: erosion then dilation with a full 3x3 neighborhood."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    eroded = np.zeros_like(mask)
    for y in range(h):
        for x in range(w):
            ok = True
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    ny, nx = y + dy, x + dx
                    if not (0 <= ny < h and 0 <= nx < w and mask[ny, nx]):
                        ok = False
            eroded[y, x] = ok
    dilated = np.zeros_like(mask)
    ys, xs = np.nonzero(eroded)
    for y, x in zip(ys, xs):
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w:
                    dilated[ny, nx] = True
    return dilated


class TestOpening:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (2, 2), (3, 3), (4, 9), (23, 17)])
    def test_equals_brute_force_and_scipy(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        square = np.ones((3, 3), dtype=bool)
        for density in (0.3, 0.6, 0.85, 1.0):
            for _ in range(5):
                mask = rng.random(shape) < density
                opened = _open3(mask)
                assert np.array_equal(opened, brute_force_opening(mask))
                scipy_opened = ndimage.binary_dilation(
                    ndimage.binary_erosion(mask, structure=square), structure=square)
                assert np.array_equal(opened, scipy_opened)


def ndimage_components(mask):
    """The labeller's oracle: scipy's 8-connected labels and their boxes."""
    labels, _ = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    return [(rows, cols, labels[rows, cols] == k)
            for k, (rows, cols) in enumerate(ndimage.find_objects(labels), start=1)]


def assert_same_components(mask):
    got, want = _components(mask), ndimage_components(mask)
    assert [(rows, cols) for rows, cols, _ in got] == [(rows, cols) for rows, cols, _ in want]
    for (_, _, patch), (_, _, expected) in zip(got, want):
        assert patch.dtype == bool and np.array_equal(patch, expected)
    return got


def drawn(*rows):
    return np.array([[c == "#" for c in row] for row in rows])


class TestComponents:
    @settings(max_examples=400)
    @given(hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2, max_side=24)))
    def test_equals_ndimage(self, mask):
        assert_same_components(mask)

    def test_random_densities_equal_ndimage(self):
        rng = np.random.default_rng(17)
        for density in (0.2, 0.4, 0.55, 0.7, 0.9):
            for _ in range(40):
                assert_same_components(rng.random(tuple(rng.integers(1, 40, 2))) < density)

    def test_empty_and_full(self):
        assert assert_same_components(np.zeros((5, 7), dtype=bool)) == []
        [(rows, cols, patch)] = assert_same_components(np.ones((6, 4), dtype=bool))
        assert (rows, cols) == (slice(0, 6), slice(0, 4)) and patch.all()

    @pytest.mark.parametrize("shape", [(1, 15), (15, 1)])
    def test_single_row_and_column(self, shape):
        line = np.array([1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 0, 1], dtype=bool)
        assert len(assert_same_components(line.reshape(shape))) == 5

    def test_u_shape_joins_at_its_base(self):
        mask = drawn("#...#",
                     "#.#.#",
                     "#...#",
                     "#####")
        components = assert_same_components(mask)
        assert [c[:2] for c in components] == [(slice(0, 4), slice(0, 5)),
                                               (slice(1, 2), slice(2, 3))]

    def test_spiral_joins_rows_after_it_starts(self):
        mask = drawn("#########",
                     "........#",
                     ".######.#",
                     ".#....#.#",
                     ".#.##.#.#",
                     ".#.#..#.#",
                     ".#.####.#",
                     ".#......#",
                     ".########")
        assert len(assert_same_components(mask)) == 1
        assert len(assert_same_components(mask.T)) == 1
        assert len(assert_same_components(mask[::-1])) == 1

    def test_diagonal_contact_connects(self):
        checker = np.indices((6, 7)).sum(axis=0) % 2 == 0
        assert len(assert_same_components(checker)) == 1
        assert len(assert_same_components(~checker)) == 1
        corners = drawn("##....",
                        "##....",
                        "..##..",
                        "..##.#",
                        "....#.",
                        "#.....")
        assert len(assert_same_components(corners)) == 2
        assert len(assert_same_components(corners[:, ::-1])) == 2


class TestCleanMask:
    def test_single_pixel_speck_removed(self):
        skin = np.zeros((10, 10), dtype=bool)
        skin[5, 5] = True
        assert clean_mask(skin, min_area=1) == []

    def test_solid_square_survives(self):
        skin = np.zeros((30, 30), dtype=bool)
        skin[5:25, 5:25] = True
        blobs = clean_mask(skin, min_area=30)
        assert len(blobs) == 1
        assert 18**2 <= blobs[0].area <= 20**2

    def test_two_separated_blobs_match_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            mask = rng.random((24, 24)) < 0.35
            mask[:, 11:13] = False  # guarantee a separating band
            blobs = clean_mask(mask, min_area=1)
            opened = brute_force_opening(mask)
            oracle = brute_force_components(opened)
            assert len(blobs) == len(oracle)
            got = sorted(
                sorted(
                    (y + b.bbox[1], x + b.bbox[0])
                    for y, x in zip(*np.nonzero(b.mask))
                )
                for b in blobs
            )
            assert got == oracle

    def test_and_of_inputs(self):
        skin = np.zeros((20, 20), dtype=bool)
        motion = np.zeros((20, 20), dtype=bool)
        skin[2:12, 2:12] = True
        motion[6:16, 6:16] = True
        blobs = clean_mask(skin & motion, min_area=1)
        assert len(blobs) == 1
        full = np.zeros((20, 20), dtype=bool)
        x, y, w, h = blobs[0].bbox
        full[y : y + h, x : x + w] = blobs[0].mask
        assert not full[~(skin & motion)].any()

    def test_output_subset_of_dilated_and(self):
        from scipy import ndimage

        rng = np.random.default_rng(9)
        for _ in range(10):
            skin = rng.random((30, 30)) < 0.5
            motion = rng.random((30, 30)) < 0.7
            blobs = clean_mask(skin & motion, min_area=1)
            allowed = ndimage.binary_dilation(skin & motion, np.ones((3, 3)))
            for blob in blobs:
                full = np.zeros((30, 30), dtype=bool)
                x, y, w, h = blob.bbox
                full[y : y + h, x : x + w] = blob.mask
                assert not (full & ~allowed).any()


def square_blob(cx, cy, side=12):
    mask = np.ones((side, side), dtype=bool)
    x0, y0 = int(cx - side / 2), int(cy - side / 2)
    return Blob(mask=mask, bbox=(x0, y0, side, side), area=side * side,
                centroid=(x0 + (side - 1) / 2, y0 + (side - 1) / 2))


def flat_depth(value, shape=(60, 80)):
    return np.full(shape, float(value))


class TestRankAndAssign:
    def test_single_blob_goes_to_nearest_prediction(self):
        blob = square_blob(60, 30)
        pred_r = HandTrack.seed((60.0, 30.0), box=(12.0, 12.0), depth=1500.0)
        pred_l = HandTrack.seed((15.0, 30.0), box=(12.0, 12.0), depth=1500.0)
        left, right = rank_and_assign([blob], pred_l, pred_r, flat_depth(1500))
        assert right is not None and left is None

    def test_two_identical_blobs_one_to_one(self):
        blobs = [square_blob(20, 30), square_blob(60, 30)]
        pred_l = HandTrack.seed((20.0, 30.0), box=(12.0, 12.0), depth=1500.0)
        pred_r = HandTrack.seed((60.0, 30.0), box=(12.0, 12.0), depth=1500.0)
        left, right = rank_and_assign(blobs, pred_l, pred_r, flat_depth(1500))
        assert left.centroid[0] == pytest.approx(19.5)
        assert right.centroid[0] == pytest.approx(59.5)

    def test_depth_distractor_loses(self):
        depth = flat_depth(1500)
        far = square_blob(56, 28)
        x, y, w, h = far.bbox
        depth[y : y + h, x : x + w] = 2100.0   # > 500 mm behind the prediction
        near = square_blob(64, 34)
        pred_r = HandTrack.seed((60.0, 31.0), box=(12.0, 12.0), depth=1500.0)
        pred_l = HandTrack.seed((-50.0, -50.0), box=(12.0, 12.0), depth=1500.0)
        left, right = rank_and_assign([far, near], pred_l, pred_r, depth)
        assert right.centroid == pytest.approx(near.centroid)

    def test_no_blob_above_score_marks_missing(self):
        blob = square_blob(70, 50)
        pred = HandTrack.seed((-200.0, -200.0), box=(12.0, 12.0), depth=1500.0)
        left, right = rank_and_assign([blob], pred, pred, flat_depth(3000))
        assert left is None and right is None

    def test_blob_over_zero_depth_scores_half_on_depth(self):
        # no depth under the blob: neither agreement nor disagreement
        blob = square_blob(60, 30)
        depth = flat_depth(1500)
        x, y, w, h = blob.bbox
        depth[y : y + h, x : x + w] = 0.0
        pred = HandTrack.seed((60.0, 30.0), box=(12.0, 12.0), depth=1500.0)
        blob_depth = blob.median_depth(depth)
        assert np.isnan(blob_depth)
        # only the depth score differs between the three: 1 at the predicted
        # depth, 0 at DEPTH_SCORE_SCALE from it, and half of 1 with no depth
        agree, unknown, apart = (_blob_score(blob, pred, d)
                                 for d in (1500.0, blob_depth, 2500.0))
        assert agree - unknown == pytest.approx(0.5 * BLOB_WEIGHT)
        assert unknown - apart == pytest.approx(0.5 * BLOB_WEIGHT)
        left, right = rank_and_assign([blob], pred, pred, depth)
        assert left is None and np.isnan(right.depth)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(11)
        blobs = [square_blob(20, 20), square_blob(50, 20, side=10), square_blob(35, 45, side=14)]
        pred_l = HandTrack.seed((22.0, 21.0), box=(12.0, 12.0), depth=1500.0)
        pred_r = HandTrack.seed((48.0, 21.0), box=(10.0, 10.0), depth=1500.0)
        depth = flat_depth(1500)
        reference = rank_and_assign(blobs, pred_l, pred_r, depth)
        for perm in itertools.permutations(blobs):
            left, right = rank_and_assign(list(perm), pred_l, pred_r, depth)
            assert left.centroid == reference[0].centroid
            assert right.centroid == reference[1].centroid

    def test_shared_blob_only_when_flagged(self):
        blob = square_blob(40, 30, side=16)
        pred_l = HandTrack.seed((38.0, 30.0), box=(16.0, 16.0), depth=1500.0)
        pred_r = HandTrack.seed((42.0, 30.0), box=(16.0, 16.0), depth=1500.0)
        depth = flat_depth(1500)
        left, right = rank_and_assign([blob], pred_l, pred_r, depth)
        assert (left is None) != (right is None)
        left, right = rank_and_assign([blob], pred_l, pred_r, depth, allow_shared=True)
        assert left is not None and right is not None

    def test_shared_blob_gives_each_hand_its_own_record(self):
        blob = square_blob(40, 30, side=16)
        pred_l = HandTrack.seed((38.0, 30.0), box=(16.0, 16.0), depth=1500.0)
        pred_r = HandTrack.seed((42.0, 30.0), box=(16.0, 16.0), depth=1500.0)
        left, right = rank_and_assign([blob], pred_l, pred_r, flat_depth(1500),
                                      allow_shared=True)
        assert left is not right
        assert np.array_equal(left.mask, right.mask)
        assert left.centroid == right.centroid == blob.centroid
        assert left.depth == right.depth == 1500.0
        left.occlusion = "hand_over_face"
        assert right.occlusion == "none"


class TestFaceOcclusion:
    def test_plane_in_front_detected_exactly(self):
        depth = flat_depth(2000, (40, 40))
        model = FaceDepthModel.from_frame(depth, (10, 10, 16, 16))
        frame = depth.copy()
        frame[12:20, 12:20] = 1850.0   # hand plane 150 mm in front
        fg = resolve_face_occlusion(frame, model, threshold=60.0)
        expected = np.zeros((16, 16), dtype=bool)
        expected[2:10, 2:10] = True
        assert np.array_equal(fg, expected)
        assert np.array_equal(model.depth, depth[10:26, 10:26])   # only classified

    def test_no_hand_empty_and_model_drifts(self):
        depth = flat_depth(2000, (40, 40))
        model = FaceDepthModel.from_frame(depth, (10, 10, 16, 16))
        drifted = flat_depth(1990, (40, 40))
        fg = resolve_face_occlusion(drifted, model, threshold=60.0)
        assert not fg.any()
        model.update(drifted, 0.5, exclude=fg)
        assert model.depth == pytest.approx(np.full((16, 16), 1995.0))

    def test_hand_pixels_never_written_to_model(self):
        depth = flat_depth(2000, (40, 40))
        model = FaceDepthModel.from_frame(depth, (10, 10, 16, 16))
        frame = depth.copy()
        frame[12:20, 12:20] = 1800.0
        before = model.depth.copy()
        fg = resolve_face_occlusion(frame, model, threshold=60.0)
        assert fg.any()
        model.update(frame, 0.5, exclude=fg)
        changed = model.depth != before
        assert not changed[fg].any()

    def test_invalid_depth_excluded(self):
        depth = flat_depth(2000, (40, 40))
        model = FaceDepthModel.from_frame(depth, (10, 10, 16, 16))
        frame = depth.copy()
        frame[12:20, 12:20] = 0.0      # no reading
        before = model.depth.copy()
        fg = resolve_face_occlusion(frame, model, threshold=60.0)
        assert not fg.any()
        model.update(frame, 0.5, exclude=fg)
        assert np.array_equal(model.depth, before)

    def test_step_keeps_a_hand_before_the_face_out_of_the_model(self):
        """The right hand's joint sits on the head, so its search window
        meets the face box. In the second frame a hand plane 300 mm in front
        of the face covers part of the box: the model keeps its depth there
        and learns the rest of the box at FACE_UPDATE_RATE."""
        joints = {"neck": (40.0, 20.0, 2000.0), "head": (40.0, 12.0, 2000.0),
                  "torso": (40.0, 40.0, 2000.0), "shoulder_left": (30.0, 22.0, 2000.0),
                  "shoulder_right": (50.0, 22.0, 2000.0), "hand_left": (20.0, 50.0, 2000.0),
                  "hand_right": (40.0, 12.0, 1700.0)}
        pose = SkeletonPose(joints)
        rgb = np.zeros((60, 80, 3), dtype=np.uint8)
        segmenter = SequenceSegmenter(model_from_color([200, 120, 90]), Config())
        segmenter.reset(20.0)
        segmenter.step(rgb, flat_depth(2000), pose)
        x, y, w, h = segmenter.face_model.bbox
        frame = flat_depth(1990)
        frame[8:16, 36:44] = 1700.0
        hand = frame[y : y + h, x : x + w] == 1700.0
        segmenter.step(rgb, frame, pose)
        assert hand.any() and not hand.all()
        learned = segmenter.face_model.depth
        assert (learned[hand] == 2000.0).all()
        rest = (1 - FACE_UPDATE_RATE) * 2000.0 + FACE_UPDATE_RATE * 1990.0
        assert (learned[~hand] == rest).all()


def blob_from_mask(mask, x0=0, y0=0):
    ys, xs = np.nonzero(mask)
    return Blob(
        mask=mask.astype(bool),
        bbox=(x0, y0, mask.shape[1], mask.shape[0]),
        area=int(mask.sum()),
        centroid=(float(xs.mean()) + x0, float(ys.mean()) + y0),
    )


def placed(joint, template, fallback):
    hand = place_hand(joint, template, fallback, (60, 80), np.zeros((60, 80)))
    assert all(type(v) is int for v in hand.bbox)
    assert (hand.occlusion, hand.area) == ("hand_over_hand", int(template.sum()))
    return hand


class TestHandOverHand:
    def test_disjoint_union_recovers_placements(self):
        tmpl_l = np.zeros((8, 8), dtype=bool)
        tmpl_l[2:7, 1:6] = True
        tmpl_r = np.zeros((7, 9), dtype=bool)
        tmpl_r[1:6, 3:9] = True
        joint = np.zeros((12, 26), dtype=bool)
        joint[2 : 2 + 8, 1 : 1 + 8] = tmpl_l
        joint[3 : 3 + 7, 14 : 14 + 9] = tmpl_r
        jb = blob_from_mask(joint, x0=30, y0=20)
        left = placed(jb, tmpl_l, (0.0, 0.0))
        right = placed(jb, tmpl_r, (0.0, 0.0))
        lys, lxs = np.nonzero(tmpl_l)
        assert left.centroid == pytest.approx((30 + 1 + lxs.mean(), 20 + 2 + lys.mean()))
        assert left.bbox == (31, 22, 8, 8)
        rys, rxs = np.nonzero(tmpl_r)
        assert right.centroid == pytest.approx((30 + 14 + rxs.mean(), 20 + 3 + rys.mean()))
        assert right.bbox == (44, 23, 9, 7)

    def test_single_template_blob_flags_same_spot(self):
        tmpl = np.zeros((8, 8), dtype=bool)
        tmpl[1:7, 1:7] = True
        jb = blob_from_mask(tmpl.copy(), x0=10, y0=10)
        left = placed(jb, tmpl, (0.0, 0.0))
        right = placed(jb, tmpl, (0.0, 0.0))
        ys, xs = np.nonzero(tmpl)
        assert left.centroid == pytest.approx((10 + xs.mean(), 10 + ys.mean()))
        assert left.bbox == right.bbox == (10, 10, 8, 8)
        assert right.centroid == pytest.approx(left.centroid)

    def test_undersized_joint_falls_back_to_predictions(self):
        tmpl = np.ones((10, 10), dtype=bool)
        small = np.ones((3, 3), dtype=bool)
        jb = blob_from_mask(small, x0=5, y0=5)
        left = placed(jb, tmpl, (1.0, 2.0))
        right = placed(jb, tmpl, (3.0, 4.0))
        assert left.centroid == (1.0, 2.0)
        assert right.centroid == (3.0, 4.0)
        assert left.bbox == right.bbox == (0, 0, 10, 10)     # clamped to the frame
        # the box origin rounds half to even: 20 - 4.5 -> 16, 31 - 4.5 -> 26
        assert placed(jb, tmpl, (20.0, 31.0)).bbox == (16, 26, 10, 10)

    def test_match_template_exact_on_shifted_copy(self):
        rng = np.random.default_rng(2)
        tmpl = rng.random((9, 11)) < 0.5
        tmpl[4, 5] = True
        joint = np.zeros((25, 30), dtype=bool)
        joint[7 : 7 + 9, 12 : 12 + 11] = tmpl
        assert match_template(joint, tmpl) == (7, 12)


def same_value(a, b):
    """Equal values of equal types; NaN equals NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same_value, a, b))
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def assert_same_frames(frames, oracle):
    assert len(frames) == len(oracle)
    for t, (got, want) in enumerate(zip(frames, oracle)):
        for name in ("left", "right", "left_track", "right_track"):
            a, b = getattr(got, name), getattr(want, name)
            if b is None:
                assert a is None, (t, name)
                continue
            for f in dataclasses.fields(b):
                assert same_value(getattr(a, f.name), getattr(b, f.name)), (t, name, f.name)


@pytest.fixture(scope="module")
def occlusion_root(tmp_path_factory):
    """Plain motion, crossing hands and a face touch; signer B is left-handed."""
    root = tmp_path_factory.mktemp("occlusion_corpus")
    spec = SynthSpec(num_classes=3, num_signers=2, samples=1, frames=36,
                     width=160, height=120, left_handed=(1,))
    return root, generate_synthetic_corpus(spec, 99, root)


@pytest.fixture(scope="module")
def occlusion_corpus(occlusion_root):
    root, manifest = occlusion_root
    cfg = Config()
    seqs = [load_sequence(root / e.path) for e in manifest.entries]
    seqs = [mirror_sequence(s) if s.handedness == "left" else s for s in seqs]
    return general_skin_model(root), cfg, seqs


def step_loop(segmenter, seq):
    segmenter.reset(shoulder_distance(seq))
    return [segmenter.step(seq.color_frames[t], seq.depth_frames[t], seq.skeleton[t])
            for t in range(len(seq))]


class TestSequenceSegmenter:
    def test_run_and_step_match_one_loop_oracle(self, occlusion_corpus):
        model, cfg, seqs = occlusion_corpus
        kinds = set()
        segmenter = SequenceSegmenter(model, cfg)
        for seq in seqs:
            oracle, signer_model = reference_segment(model, cfg, seq)
            result = segmenter.run(seq)
            assert result.span == shoulder_distance(seq)
            assert_same_frames(result.frames, oracle)
            assert_same_frames(step_loop(segmenter, seq), oracle)
            assert same_value(segmenter.signer_model.skin_counts, signer_model.skin_counts)
            assert same_value(segmenter.signer_model.nonskin_counts,
                              signer_model.nonskin_counts)
            kinds |= {o.occlusion for f in oracle for o in (f.left, f.right)
                      if o is not None}
        assert kinds == {"none", "hand_over_hand", "hand_over_face"}

    def test_bins_come_from_the_skin_model(self, occlusion_root, occlusion_corpus):
        """The segmenter bins chromaticity as its skin model does, here a
        16-bin model of the corpus's skin lists in place of the 32-bin one."""
        general, cfg, seqs = occlusion_corpus
        skin, nonskin = (parse_pixel_list((occlusion_root[0] / name).read_text())
                         for name in SKIN_FILES)
        model = SkinHistogram.from_pixels(skin, nonskin, bins=16)
        assert general.bins == 32
        frames = SequenceSegmenter(model, cfg).run(seqs[0]).frames
        assert_same_frames(frames, reference_segment(model, cfg, seqs[0])[0])

    def test_track_reseeded_after_max_coast(self, occlusion_corpus):
        """Blanking the right hand's depth hides it from the body region; once
        it has coasted past MAX_COAST frames its track restarts at the
        skeleton's hand joint."""
        model, cfg, seqs = occlusion_corpus
        seq = seqs[0]
        depth = [d.copy() for d in seq.depth_frames]
        for t in range(4, 4 + MAX_COAST + 6):
            x, y, _ = seq.skeleton[t].joints["hand_right"]
            depth[t][max(0, int(y) - 20) : int(y) + 20, max(0, int(x) - 20) : int(x) + 20] = 0
        seq = dataclasses.replace(seq, depth_frames=depth)
        frames = SequenceSegmenter(model, cfg).run(seq).frames
        reseeded = [t for t, f in enumerate(frames)
                    if f.right is None and f.right_track.coast_count == 0]
        assert reseeded
        t = reseeded[0]
        assert frames[t - 1].right_track.coast_count == MAX_COAST
        assert np.array_equal(frames[t].right_track.position,
                              seq.skeleton[t].joints["hand_right"][:2])
        assert_same_frames(frames, reference_segment(model, cfg, seq)[0])
