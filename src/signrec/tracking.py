"""Per-hand Kalman tracking.

Two filters per hand: a constant-acceleration filter over the centroid
(x, y, vx, vy, ax, ay) and a constant-velocity filter over the bounding
box size (w, h, vw, vh). One time step equals one frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# x' = x + v + a/2, v' = v + a  (dt = 1)
_F_MOTION = np.array(
    [
        [1, 0, 1, 0, 0.5, 0],
        [0, 1, 0, 1, 0, 0.5],
        [0, 0, 1, 0, 1, 0],
        [0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
    ],
    dtype=float,
)
_F_BOX = np.array(
    [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]],
    dtype=float,
)
# identity matrices by size: state (6, 4) and measurement (2)
_EYE = {n: np.eye(n) for n in (2, 4, 6)}


def _symmetrize(P):
    return (P + P.T) / 2.0


@dataclass
class HandTrack:
    motion_state: np.ndarray          # (6,) x, y, vx, vy, ax, ay
    motion_cov: np.ndarray            # (6, 6)
    box_state: np.ndarray             # (4,) w, h, vw, vh
    box_cov: np.ndarray               # (4, 4)
    coast_count: int = 0
    last_depth: float = field(default=float("nan"))

    @classmethod
    def seed(cls, position, box=(16.0, 16.0), depth=float("nan"), initial_cov=1e3):
        motion = np.zeros(6)
        motion[:2] = position
        size = np.zeros(4)
        size[:2] = box
        return cls(
            motion_state=motion,
            motion_cov=np.eye(6) * initial_cov,
            box_state=size,
            box_cov=np.eye(4) * initial_cov,
            last_depth=float(depth),
        )

    @property
    def position(self):
        return self.motion_state[:2].copy()

    @property
    def velocity(self):
        return self.motion_state[2:4].copy()

    @property
    def box(self):
        return self.box_state[:2].copy()


def _kf_predict(x, P, F, q):
    x = F @ x
    P = _symmetrize(F @ P @ F.T + _EYE[len(x)] * q)
    return x, P


def _kf_update(x, P, z, r):
    """Fold in a measurement z of x[:2]. H = [I 0] only selects, so H P H^T,
    P H^T and H x are P[:2, :2], P[:, :2] and x[:2], and I - K H is the
    identity less K in its first two columns."""
    K = P[:, :2] @ np.linalg.inv(P[:2, :2] + _EYE[2] * r)
    x = x + K @ (z - x[:2])
    ikh = _EYE[len(x)].copy()     # I - K H
    ikh[:, :2] -= K
    P = _symmetrize(ikh @ P)
    return x, P


def predict(track: HandTrack, process_noise=1e-2) -> HandTrack:
    """Propagate both filters one frame; covariances grow by process noise."""
    mx, mP = _kf_predict(track.motion_state, track.motion_cov, _F_MOTION, process_noise)
    bx, bP = _kf_predict(track.box_state, track.box_cov, _F_BOX, process_noise)
    bx[:2] = np.maximum(bx[:2], 1.0)  # box dimensions stay positive
    return HandTrack(mx, mP, bx, bP, track.coast_count + 1, track.last_depth)


def update(track: HandTrack, centroid, box, measurement_noise=4.0, depth=math.nan) -> HandTrack:
    """Fold a measurement into a predicted track. The centroid and box must
    be finite; a non-finite `depth` is no reading, and the track keeps its
    last depth.
    """
    centroid = np.asarray(centroid, dtype=float)
    box = np.asarray(box, dtype=float)
    mx, mP = _kf_update(track.motion_state, track.motion_cov, centroid, measurement_noise)
    bx, bP = _kf_update(track.box_state, track.box_cov, box, measurement_noise)
    bx[:2] = np.maximum(bx[:2], 1.0)
    new_depth = float(depth) if math.isfinite(depth) else track.last_depth
    return HandTrack(mx, mP, bx, bP, 0, new_depth)


def search_window(track: HandTrack, frame_shape, pad_frac=0.25, pad_min=10.0):
    """Padded search rectangle (x0, y0, x1, y1) around the predicted box.

    Each side is pushed out by max(pad_frac * side, pad_min) to absorb
    abrupt direction or shape changes, then clamped to the frame.
    """
    h, w = frame_shape
    cx, cy = track.motion_state[:2]
    bw, bh = track.box_state[:2]
    pad_x = max(pad_frac * bw, pad_min)
    pad_y = max(pad_frac * bh, pad_min)
    x0 = max(0.0, cx - bw / 2 - pad_x)
    y0 = max(0.0, cy - bh / 2 - pad_y)
    x1 = min(float(w), cx + bw / 2 + pad_x)
    y1 = min(float(h), cy + bh / 2 + pad_y)
    return (x0, y0, x1, y1)


def windows_intersect(a, b):
    return a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]


def point_inside(point, rect):
    x0, y0, x1, y1 = rect
    return x0 <= point[0] <= x1 and y0 <= point[1] <= y1


def detect_overlap(window_left, window_right, blobs) -> bool:
    """Hands are treated as one object when their search windows intersect
    and exactly one candidate blob sits inside the union. The blobs come from
    `segmentation.clean_mask`, so each already has at least
    `segmentation.MIN_BLOB_AREA` pixels."""
    if not windows_intersect(window_left, window_right):
        return False
    count = 0
    for blob in blobs:
        if point_inside(blob.centroid, window_left) or point_inside(blob.centroid, window_right):
            count += 1
    return count == 1
