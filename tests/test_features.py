import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from signrec.features import (
    HAND_DIM,
    FeatureSample,
    FeatureSetSpec,
    boundary_pixel_count,
    convex_hull,
    geometric_features,
    hog,
    hu_moments,
    load_sample,
    resize_bilinear,
    save_sample,
    shape_context,
    trace_boundary,
    zero_idle_hand,
)


def disk_mask(radius, size=None, center=None):
    size = size or (2 * radius + 5)
    cx = cy = size // 2 if center is None else center
    ys, xs = np.mgrid[0:size, 0:size]
    return (xs - cx) ** 2 + (ys - cy) ** 2 <= radius**2


def random_blob(rng, size=24, target=200):
    """A connected random blob of roughly `target` pixels (dilated walk)."""
    mask = np.zeros((size, size), dtype=bool)
    y, x = size // 2, size // 2
    mask[y, x] = True
    while mask.sum() < target:
        y = int(np.clip(y + rng.integers(-1, 2), 1, size - 2))
        x = int(np.clip(x + rng.integers(-1, 2), 1, size - 2))
        mask[y - 1 : y + 2, x - 1 : x + 2] |= rng.random((3, 3)) < 0.7
    return mask


class TestGeometric:
    def test_filled_square(self):
        mask = np.zeros((14, 14), dtype=bool)
        mask[2:12, 2:12] = True
        a, p, s, c, major, minor, cosb = geometric_features(mask)
        assert a == 100
        assert p == 36
        assert s == pytest.approx(1.0)
        assert c == pytest.approx(0.0, abs=1e-12)
        assert major == pytest.approx(minor)

    def test_axis_aligned_rectangle(self):
        mask = np.zeros((16, 26), dtype=bool)
        mask[3:13, 3:23] = True          # 20 wide x 10 tall
        vec = geometric_features(mask)
        _, _, _, c, major, minor, cosb = vec
        assert cosb == pytest.approx(1.0)
        assert major / minor == pytest.approx(2.0)
        assert c == pytest.approx(abs(1 - minor / major))

    def test_eccentricity_standard_switch(self):
        mask = np.zeros((16, 26), dtype=bool)
        mask[3:13, 3:23] = True
        vec = geometric_features(mask, eccentricity_as_printed=False)
        ratio = vec[5] / vec[4]
        assert vec[3] == pytest.approx(math.sqrt(1 - ratio**2))

    def test_tiny_blob_degenerate(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        assert not geometric_features(mask).any()

    def test_solidity_matches_brute_force_hull_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            mask = random_blob(rng)
            vec = geometric_features(mask)
            ys, xs = np.nonzero(mask)
            pts = list(zip(xs.tolist(), ys.tolist()))
            oracle = _gift_wrap_hull_count(pts)
            assert vec[2] == pytest.approx(mask.sum() / oracle, abs=1e-9)


def _gift_wrap_hull_count(points):
    """Oracle: gift-wrapping hull + per-pixel inclusion, integer arithmetic."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return len(pts)
    hull = []
    start = min(pts)
    current = start
    while True:
        hull.append(current)
        candidate = pts[0] if pts[0] != current else pts[1]
        for p in pts:
            if p == current:
                continue
            cross = (candidate[0] - current[0]) * (p[1] - current[1]) - (
                candidate[1] - current[1]
            ) * (p[0] - current[0])
            if cross > 0 or (
                cross == 0
                and (p[0] - current[0]) ** 2 + (p[1] - current[1]) ** 2
                > (candidate[0] - current[0]) ** 2 + (candidate[1] - current[1]) ** 2
            ):
                candidate = p
        current = candidate
        if current == start:
            break
    if len(hull) <= 2:
        return len(pts)
    count = 0
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    # the march above walks clockwise, so the interior is right of each edge
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            inside = True
            for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1]):
                if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) > 0:
                    inside = False
                    break
            count += inside
    return count


def grid_hull_count(points):
    """Oracle: every pixel center of the bounding box tested against each
    edge of the hull of all points; a hull of at most two vertices counts the
    distinct points."""
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    hull = convex_hull(pts)
    if len(hull) <= 2:
        return len({(int(x), int(y)) for x, y in pts})
    xs = np.arange(pts[:, 0].min(), pts[:, 0].max() + 1)
    ys = np.arange(pts[:, 1].min(), pts[:, 1].max() + 1)
    gx, gy = np.meshgrid(xs, ys)
    inside = np.ones(gx.shape, dtype=bool)
    for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1]):
        # counterclockwise hull: the interior is left of each directed edge
        inside &= (x2 - x1) * (gy - y1) - (y2 - y1) * (gx - x1) >= 0
    return int(inside.sum())


COORD = st.integers(-40, 40)
RANDOM_POINTS = st.lists(st.tuples(COORD, COORD), min_size=1, max_size=80)
FEW_POINTS = st.lists(st.tuples(COORD, COORD), min_size=1, max_size=2)
# points on one line, possibly with gaps and repeats
COLLINEAR_POINTS = st.builds(
    lambda origin, step, ks: [(origin[0] + k * step[0], origin[1] + k * step[1]) for k in ks],
    st.tuples(COORD, COORD),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.lists(st.integers(-10, 10), min_size=1, max_size=12),
)


def points_mask(points):
    """The smallest boolean grid whose set cells are the points, shifted."""
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    lo = pts.min(axis=0)
    width, height = pts.max(axis=0) - lo + 1
    mask = np.zeros((height, width), dtype=bool)
    mask[pts[:, 1] - lo[1], pts[:, 0] - lo[0]] = True
    return mask


class TestHull:
    @settings(max_examples=300)
    @given(points=st.one_of(RANDOM_POINTS, COLLINEAR_POINTS, FEW_POINTS))
    def test_pixel_count_equals_grid_count(self, points):
        # solidity: the blob's pixels over the pixel centers its hull covers
        mask = points_mask(points)
        a = int(mask.sum())
        want = a / grid_hull_count(points) if a >= 3 else 0.0
        assert geometric_features(mask)[2] == want

    def test_hull_of_square_is_four_corners(self):
        pts = [(x, y) for x in range(5) for y in range(5)]
        hull = convex_hull(pts)
        assert sorted(hull) == [(0, 0), (0, 4), (4, 0), (4, 4)]

    def test_collinear_points(self):
        # a line of pixels is its own hull
        assert geometric_features(points_mask([(i, 2 * i) for i in range(6)]))[2] == 1.0

    def test_boundary_count_ring(self):
        mask = np.zeros((12, 12), dtype=bool)
        mask[2:10, 2:10] = True
        assert boundary_pixel_count(mask) == 4 * 8 - 4


def product_hu_moments(mask):
    """Oracle: the Hu invariants with every central moment summed from a
    fresh dx**p * dy**q product."""
    ys, xs = np.nonzero(mask)
    x = (xs - xs.min()).astype(np.float64)
    y = (ys - ys.min()).astype(np.float64)
    dx, dy = x - x.mean(), y - y.mean()

    def eta(p, q):
        return float(np.sum(dx**p * dy**q)) / x.size ** (1 + (p + q) / 2.0)

    e20, e02, e11 = eta(2, 0), eta(0, 2), eta(1, 1)
    e30, e03, e21, e12 = eta(3, 0), eta(0, 3), eta(2, 1), eta(1, 2)
    a, b = e30 + e12, e21 + e03
    return np.array([
        e20 + e02,
        (e20 - e02) ** 2 + 4 * e11**2,
        (e30 - 3 * e12) ** 2 + (3 * e21 - e03) ** 2,
        a**2 + b**2,
        (e30 - 3 * e12) * a * (a**2 - 3 * b**2) + (3 * e21 - e03) * b * (3 * a**2 - b**2),
        (e20 - e02) * (a**2 - b**2) + 4 * e11 * a * b,
        (3 * e21 - e03) * a * (a**2 - 3 * b**2) - (e30 - 3 * e12) * b * (3 * a**2 - b**2),
    ])


class TestHuMoments:
    def test_matches_product_moments(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            mask = random_blob(rng, size=int(rng.integers(6, 30)),
                               target=int(rng.integers(3, 30)))
            assert np.array_equal(hu_moments(mask), product_hu_moments(mask))

    def test_translation_exact(self):
        rng = np.random.default_rng(3)
        blob = random_blob(rng, size=30)
        big = np.zeros((100, 100), dtype=bool)
        big[10 : 10 + 30, 20 : 20 + 30] = blob
        moved = np.zeros((100, 100), dtype=bool)
        moved[10 - 12 + 30 : 10 - 12 + 60, 20 + 37 : 20 + 37 + 30] = blob  # (+37, -12)
        h1 = hu_moments(big)
        h2 = hu_moments(moved)
        assert np.max(np.abs(h1 - h2)) <= 1e-12

    def test_rotation_90(self):
        rng = np.random.default_rng(4)
        blob = random_blob(rng, size=28)
        h1 = hu_moments(blob)
        h2 = hu_moments(np.rot90(blob))
        assert np.max(np.abs(h1 - h2)) <= 1e-9

    def test_scale_high_resolution(self):
        # rasterized disk at 1x and 2x: invariants agree to ~1e-3 relative
        h1 = hu_moments(disk_mask(30))
        h2 = hu_moments(disk_mask(60))
        scale = np.maximum(np.abs(h1), np.abs(h2))
        mask = scale > 1e-12
        assert np.max(np.abs(h1 - h2)[mask] / scale[mask]) <= 1e-3

    def test_degenerate(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 1] = True
        assert not hu_moments(mask).any()


def checked_trace_boundary(mask):
    """Oracle: the Moore walk over the 2-D mask with a bounds check on
    every neighbor."""
    m = np.asarray(mask, dtype=bool)
    ys, xs = np.nonzero(m)
    if xs.size == 0:
        return []
    start = (int(ys[0]), int(xs[0]))
    if xs.size == 1:
        return [start]
    neighbors = ((0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1))

    def inside(r, c):
        return 0 <= r < m.shape[0] and 0 <= c < m.shape[1] and m[r, c]

    boundary = [start]
    current = start
    backtrack_idx = 0
    first_move = None
    for _ in range(8 * xs.size):
        found = None
        for k in range(1, 9):
            idx = (backtrack_idx + k) % 8
            r = current[0] + neighbors[idx][0]
            c = current[1] + neighbors[idx][1]
            if inside(r, c):
                found = (idx, (r, c))
                break
        if found is None:
            break
        idx, nxt = found
        if nxt == start and first_move is not None and idx == first_move:
            break
        if first_move is None:
            first_move = idx
        boundary.append(nxt)
        current = nxt
        backtrack_idx = (idx + 4) % 8
        if current == start:
            break
    if len(boundary) > 1 and boundary[-1] == start:
        boundary.pop()
    return boundary


def _mask(shape, cells):
    mask = np.zeros(shape, dtype=bool)
    for r, c in cells:
        if 0 <= r < shape[0] and 0 <= c < shape[1]:
            mask[r, c] = True
    return mask


SHAPES = st.tuples(st.integers(1, 14), st.integers(1, 14))
# dense and sparse random masks; many touch the crop edge
RANDOM_MASKS = SHAPES.flatmap(lambda shape: hnp.arrays(bool, shape))
SINGLE_PIXELS = st.builds(lambda shape, r, c: _mask(shape, [(r % shape[0], c % shape[1])]),
                          SHAPES, st.integers(0, 13), st.integers(0, 13))
# one-pixel lines: horizontal, vertical and both diagonals
LINES = st.builds(
    lambda r, c, step, length: _mask((12, 12), [(r + k * step[0], c + k * step[1])
                                                for k in range(length)]),
    st.integers(0, 11), st.integers(0, 11),
    st.sampled_from([(0, 1), (1, 0), (1, 1), (1, -1)]), st.integers(2, 12))


def _holed(shape, holes):
    """A filled rectangle with a one-pixel margin and holes punched in it."""
    mask = np.pad(np.ones(shape, dtype=bool), 1)
    mask[tuple(np.transpose(holes))] = False
    return mask


HOLED = st.builds(_holed, st.tuples(st.integers(3, 10), st.integers(3, 10)),
                  st.lists(st.tuples(st.integers(2, 4), st.integers(2, 4)),
                           min_size=1, max_size=6))
# pixels that touch only through corners: checkerboard patches
DIAGONAL = st.builds(lambda shape, phase: np.indices(shape).sum(axis=0) % 2 == phase,
                     SHAPES, st.integers(0, 1))


class TestShapeContext:
    def test_sums_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            vec = shape_context(random_blob(rng))
            assert vec.sum() == pytest.approx(1.0, abs=1e-12)
            assert (vec >= 0).all()

    def test_translation_invariant(self):
        blob = disk_mask(8, size=60, center=20)
        vec1 = shape_context(blob)
        moved = np.roll(np.roll(blob, 17, axis=0), 9, axis=1)
        vec2 = shape_context(moved)
        assert np.max(np.abs(vec1 - vec2)) <= 1e-9

    def test_scale_robust(self):
        v1 = shape_context(disk_mask(20))
        v2 = shape_context(disk_mask(30))
        assert np.max(np.abs(v1 - v2)) <= 1e-2

    @settings(max_examples=400)
    @given(mask=st.one_of(RANDOM_MASKS, SINGLE_PIXELS, LINES, HOLED, DIAGONAL))
    def test_boundary_trace_matches_checked_walk(self, mask):
        assert trace_boundary(mask) == checked_trace_boundary(mask)

    def test_boundary_trace_closed_and_on_boundary(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            blob = random_blob(rng)
            pts = trace_boundary(blob)
            assert len(pts) >= 3
            for r, c in pts:
                assert blob[r, c]
            for (r1, c1), (r2, c2) in zip(pts, pts[1:]):
                assert max(abs(r1 - r2), abs(c1 - c2)) == 1


def hog_reference(crop):
    """Oracle: scalar-loop reimplementation of the same HOG definition."""
    patch = resize_bilinear(np.asarray(crop, dtype=float), 32, 32)
    gy, gx = np.gradient(patch)
    out = np.zeros((2, 2, 9))
    for i in range(32):
        for j in range(32):
            mag = math.hypot(gx[i, j], gy[i, j])
            ang = math.atan2(gy[i, j], gx[i, j]) % math.pi
            b = min(int(ang / (math.pi / 9)), 8)
            out[i // 16, j // 16, b] += mag
    vec = out.reshape(-1)
    norm = np.linalg.norm(vec)
    return vec / norm if norm else vec


class TestHog:
    def test_uniform_patch_zero(self):
        assert not hog(np.full((20, 20), 128.0)).any()

    def test_vertical_edge_hits_horizontal_bin(self):
        crop = np.zeros((32, 32))
        crop[:, 16:] = 200.0
        vec = hog(crop)
        cells = vec.reshape(2, 2, 9)
        # gradient along x only: all mass in orientation bin 0
        assert cells[..., 0].sum() == pytest.approx(np.abs(vec).sum())

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(10)
        for _ in range(8):
            crop = rng.uniform(0, 255, (32, 32))
            vec = hog(crop)
            assert np.max(np.abs(vec - hog_reference(crop))) <= 1e-9

    def test_translation_of_pattern_in_fixed_crop(self):
        base = np.zeros((40, 40))
        base[10:20, 10:20] = 150.0
        moved = np.zeros((40, 40))
        moved[15:25, 18:28] = 150.0
        v1 = hog(base[8:24, 8:24])
        v2 = hog(moved[13:29, 16:32])
        assert np.max(np.abs(v1 - v2)) <= 1e-9


class TestPositional:
    @staticmethod
    def make_pose(neck=(240.0, 200.0), torso_z=2000.0):
        from signrec.dataio import SkeletonPose

        joints = {
            "neck": (neck[0], neck[1], torso_z),
            "torso": (240.0, 300.0, torso_z),
        }
        return SkeletonPose(joints)

    def test_hand_at_neck_is_origin(self):
        from signrec.features import positional_features
        from signrec.tracking import HandTrack

        track = HandTrack.seed((240.0, 200.0), depth=2000.0)
        vec = positional_features(track, self.make_pose(), span=80.0, width=640,
                                  focal_per_width=0.82)
        assert vec[0] == 0.0 and vec[1] == 0.0
        assert vec[2] == 0.0     # hand depth equals torso depth

    def test_one_shoulder_width_right_of_neck(self):
        from signrec.features import positional_features
        from signrec.tracking import HandTrack

        track = HandTrack.seed((320.0, 200.0), depth=2000.0)
        vec = positional_features(track, self.make_pose(), span=80.0, width=640,
                                  focal_per_width=0.82)
        assert vec[0] == pytest.approx(1.0)

    def test_velocity_normalized_by_span(self):
        from signrec.features import positional_features
        from signrec.tracking import HandTrack

        track = HandTrack.seed((240.0, 200.0), depth=2000.0)
        track.motion_state[2:4] = [8.0, -4.0]
        vec = positional_features(track, self.make_pose(), span=80.0, width=640,
                                  focal_per_width=0.82)
        assert vec[3] == pytest.approx(0.1)
        assert vec[4] == pytest.approx(-0.05)

    def test_depth_offset_in_pixel_equivalents(self):
        from signrec.features import positional_features
        from signrec.tracking import HandTrack

        track = HandTrack.seed((240.0, 200.0), depth=1500.0)
        vec = positional_features(track, self.make_pose(torso_z=2000.0), span=80.0,
                                  width=640, focal_per_width=0.82)
        expected = (1500.0 - 2000.0) * 0.82 * 640 / (2000.0 * 80.0)
        assert vec[2] == pytest.approx(expected)


def build_sample(frames):
    return FeatureSample(frames=frames, sign_label="sign00", signer_id="signerA")


class TestAssemblyHelpers:
    def test_feature_set_dimensions(self):
        assert FeatureSetSpec.parse("posXY").dimension == 4
        assert FeatureSetSpec.parse("pos,S").dimension == 26
        assert FeatureSetSpec.parse("pos,HOG").dimension == 84
        assert FeatureSetSpec.parse("pos,S,HOG").dimension == 98
        assert FeatureSetSpec.parse("posXYZ").dimension == 6
        assert FeatureSetSpec.parse("posKinect").dimension == 4
        assert FeatureSetSpec.parse("velocityXYZ").dimension == 6
        assert FeatureSetSpec.parse("HU").dimension == 14
        assert FeatureSetSpec.parse("SC").dimension == 90

    def test_unknown_block_rejected(self):
        with pytest.raises(ValueError, match="unknown feature block"):
            FeatureSetSpec.parse("pos,nope")

    def test_selection_picks_right_then_left(self):
        frames = np.arange(2 * 2 * HAND_DIM, dtype=float).reshape(2, 2 * HAND_DIM)
        sel = frames[:, FeatureSetSpec.parse("posXY").columns()]
        assert sel.shape == (2, 4)
        assert list(sel[0]) == [0.0, 1.0, float(HAND_DIM), float(HAND_DIM + 1)]

    def test_zero_idle_hand_on_still_hand(self):
        frames = np.ones((30, 2 * HAND_DIM))
        frames[:, 0] = np.linspace(0, 3, 30)      # right hand travels 3 spans
        frames[:, HAND_DIM + 0] = 0.25            # left hand frozen
        frames[:, HAND_DIM + 1] = 0.80
        sample = build_sample(frames)
        out = zero_idle_hand(sample)
        assert not out.frames[:, HAND_DIM:].any()
        assert out.frames[:, :HAND_DIM].any()

    def test_zero_idle_hand_moving_hands_untouched(self):
        frames = np.ones((30, 2 * HAND_DIM))
        frames[:, 0] = np.linspace(0, 3, 30)
        frames[:, HAND_DIM] = np.linspace(0, -2, 30)
        sample = build_sample(frames)
        out = zero_idle_hand(sample)
        assert np.array_equal(out.frames, frames)

    def test_zero_idle_jitter_below_threshold(self):
        # total path 0.29 spans, mean speed 0.01: both under the thresholds
        frames = np.ones((30, 2 * HAND_DIM))
        x = 0.25 + 0.005 * np.array([(-1) ** t for t in range(30)])
        frames[:, HAND_DIM] = x
        frames[:, HAND_DIM + 1] = 0.8
        frames[:, 0] = np.linspace(0, 3, 30)
        out = zero_idle_hand(build_sample(frames))
        assert not out.frames[:, HAND_DIM:].any()

    def test_zero_idle_idempotent(self):
        frames = np.ones((30, 2 * HAND_DIM))
        frames[:, 0] = np.linspace(0, 3, 30)
        once = zero_idle_hand(build_sample(frames))
        twice = zero_idle_hand(once)
        assert np.array_equal(once.frames, twice.frames)

    def test_sample_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        sample = build_sample(rng.normal(size=(7, 2 * HAND_DIM)))
        save_sample(sample, tmp_path / "f.txt")
        loaded = load_sample(tmp_path / "f.txt")
        assert np.array_equal(loaded.frames, sample.frames)
        assert loaded.sign_label == "sign00"
        assert loaded.signer_id == "signerA"
