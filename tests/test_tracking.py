import numpy as np
import pytest

from signrec.segmentation import Blob
from signrec.tracking import (
    HandTrack,
    detect_overlap,
    predict,
    search_window,
    update,
)


def fresh_track(position=(0.0, 0.0), box=(40.0, 40.0)):
    return HandTrack.seed(position, box=box, initial_cov=1e3)


class TestPredict:
    def test_constant_velocity_step(self):
        track = fresh_track()
        track.motion_state[:] = [0, 0, 1, 0, 0, 0]
        assert predict(track).motion_state[:2] == pytest.approx([1.0, 0.0])

    def test_acceleration_half_step(self):
        track = fresh_track()
        track.motion_state[:] = [0, 0, 0, 0, 2, 0]
        stepped = predict(track)
        assert stepped.motion_state[0] == pytest.approx(1.0)   # x += a/2
        assert stepped.motion_state[2] == pytest.approx(2.0)   # v += a

    def test_noiseless_linear_track_rmse(self):
        # closed-form straight line: position error settles below 0.1 px
        track = fresh_track(position=(0.0, 0.0))
        errors = []
        for t in range(1, 51):
            truth = np.array([3.0 * t, -2.0 * t])
            track = update(predict(track), truth, (40, 40), measurement_noise=1e-8)
            if t > 10:
                errors.append(np.linalg.norm(track.motion_state[:2] - truth))
        assert np.sqrt(np.mean(np.square(errors))) <= 0.1

    def test_coasting_never_shrinks_covariance(self):
        track = fresh_track()
        for _ in range(20):
            stepped = predict(track)
            assert np.all(np.diag(stepped.motion_cov) >= np.diag(track.motion_cov) - 1e-12)
            track = stepped


class TestUpdate:
    def test_zero_noise_snaps_to_measurement(self):
        track = predict(fresh_track())
        updated = update(track, (17.0, -4.0), (20.0, 30.0), measurement_noise=1e-12)
        assert updated.motion_state[:2] == pytest.approx([17.0, -4.0], abs=1e-6)
        assert updated.box_state[:2] == pytest.approx([20.0, 30.0], abs=1e-6)

    def test_infinite_noise_keeps_prediction(self):
        track = predict(fresh_track(position=(5.0, 5.0)))
        predicted = track.motion_state.copy()
        updated = update(track, (100.0, 100.0), (40.0, 40.0), measurement_noise=1e15)
        assert updated.motion_state == pytest.approx(predicted, abs=1e-6)

    def test_scalar_gain_matches_hand_algebra(self):
        # 1-D Kalman gain K = P / (P + R), computed by hand
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = float(rng.uniform(0.1, 100.0))
            r = float(rng.uniform(0.1, 100.0))
            x = float(rng.uniform(-10, 10))
            z = float(rng.uniform(-10, 10))
            k = p / (p + r)
            expected = x + k * (z - x)

            track = fresh_track(position=(x, 0.0))
            track.motion_cov = np.eye(6) * p
            updated = update(track, (z, 0.0), (40, 40), measurement_noise=r)
            assert updated.motion_state[0] == pytest.approx(expected, rel=1e-9)

    def test_non_finite_measurement_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            update(fresh_track(), (np.nan, 1.0), (40.0, 40.0))

    def test_repeated_measurement_innovation_shrinks(self):
        track = fresh_track(position=(0.0, 0.0))
        z = np.array([10.0, 10.0])
        norms = []
        for _ in range(12):
            track = predict(track)
            norms.append(np.linalg.norm(z - track.motion_state[:2]))
            track = update(track, z, (40, 40))
        assert all(b <= a + 1e-9 for a, b in zip(norms, norms[1:]))

    def test_covariance_symmetric_over_many_cycles(self):
        track = fresh_track()
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            track = predict(track)
            track = update(track, rng.uniform(-50, 50, 2), rng.uniform(10, 50, 2))
        assert np.max(np.abs(track.motion_cov - track.motion_cov.T)) < 1e-9
        assert np.max(np.abs(track.box_cov - track.box_cov.T)) < 1e-9


class TestSearchWindow:
    def test_quarter_padding(self):
        track = fresh_track(position=(320.0, 240.0), box=(40.0, 40.0))
        x0, y0, x1, y1 = search_window(track, (480, 640))
        assert (x1 - x0, y1 - y0) == pytest.approx((60.0, 60.0))

    def test_clamped_at_corner(self):
        track = fresh_track(position=(2.0, 2.0), box=(40.0, 40.0))
        x0, y0, x1, y1 = search_window(track, (480, 640))
        assert x0 == 0.0 and y0 == 0.0
        assert x1 == pytest.approx(32.0) and y1 == pytest.approx(32.0)

    def test_minimum_padding_floor(self):
        track = fresh_track(position=(320.0, 240.0), box=(8.0, 8.0))
        x0, y0, x1, y1 = search_window(track, (480, 640), pad_frac=0.25, pad_min=10.0)
        assert (x1 - x0) == pytest.approx(8 + 2 * 10.0)


def blob_at(cx, cy, area=100):
    side = int(np.sqrt(area))
    return Blob(
        mask=np.ones((side, side), dtype=bool),
        bbox=(int(cx - side // 2), int(cy - side // 2), side, side),
        area=side * side,
        centroid=(cx, cy),
    )


class TestDetectOverlap:
    def test_disjoint_windows(self):
        blobs = [blob_at(50, 50)]
        assert not detect_overlap((0, 0, 20, 20), (100, 100, 120, 120), blobs)

    def test_two_blobs_in_union(self):
        windows = ((40, 40, 80, 80), (60, 40, 100, 80))
        blobs = [blob_at(50, 60), blob_at(90, 60)]
        assert not detect_overlap(windows[0], windows[1], blobs)

    def test_single_merged_blob(self):
        windows = ((40, 40, 80, 80), (60, 40, 100, 80))
        blobs = [blob_at(70, 60, area=400)]
        assert detect_overlap(windows[0], windows[1], blobs)

