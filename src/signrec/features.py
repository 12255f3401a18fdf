"""Per-frame hand descriptors and feature-sample assembly.

Each frame yields, per hand: normalized position and velocity relative to
the neck/torso, a geometric block (area, perimeter, solidity, eccentricity,
ellipse axes, orientation), Hu invariant moments, a shape-context histogram
of the blob boundary, and a HOG patch descriptor. Samples store the full
block matrix; named feature sets select columns from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dataio import LoadError, load_record, save_record
from .segmentation import to_gray

SC_POINTS = 40
SC_RADIAL_BINS = 5
SC_ANGLE_BINS = 9
SC_DIM = SC_RADIAL_BINS * SC_ANGLE_BINS
HOG_SIZE = 32
HOG_BINS = 9
HOG_DIM = 4 * HOG_BINS

# per-hand layout of the full feature matrix
_FULL_LAYOUT = (
    ("pos", 6),        # x, y, z, vx, vy, vz
    ("posKinect", 2),
    ("S", 7),          # a, p, s, c, M, m, cos(beta)
    ("HU", 7),
    ("SC", SC_DIM),
    ("HOG", HOG_DIM),
)
HAND_DIM = sum(width for _, width in _FULL_LAYOUT)

_BLOCK_COLS: dict[str, list[int]] = {}
_offset = 0
for _name, _width in _FULL_LAYOUT:
    _BLOCK_COLS[_name] = list(range(_offset, _offset + _width))
    _offset += _width
_BLOCK_COLS["posXY"] = _BLOCK_COLS["pos"][0:2]
_BLOCK_COLS["posXYZ"] = _BLOCK_COLS["pos"][0:3]
_BLOCK_COLS["velocityXYZ"] = _BLOCK_COLS["pos"][3:6]

BLOCK_NAMES = tuple(_BLOCK_COLS)


@dataclass(frozen=True)
class FeatureSetSpec:
    """An ordered selection of feature blocks, applied to both hands."""

    blocks: tuple[str, ...]

    def __post_init__(self):
        for name in self.blocks:
            if name not in _BLOCK_COLS:
                raise ValueError(f"unknown feature block {name!r}; known: {BLOCK_NAMES}")
        if not self.blocks:
            raise ValueError("feature set must name at least one block")

    @classmethod
    def parse(cls, text):
        return cls(tuple(part.strip() for part in text.split(",") if part.strip()))

    @property
    def dimension(self):
        return 2 * sum(len(_BLOCK_COLS[b]) for b in self.blocks)

    def columns(self):
        """Column indices into the full matrix: right-hand blocks, then left."""
        per_hand = [c for b in self.blocks for c in _BLOCK_COLS[b]]
        return np.array(per_hand + [c + HAND_DIM for c in per_hand], dtype=np.intp)

    @property
    def name(self):
        return ",".join(self.blocks)


@dataclass
class FeatureSample:
    frames: np.ndarray          # (T, D) float64
    sign_label: str
    signer_id: str
    selected: str = "full"

    def __len__(self):
        return len(self.frames)

    def select(self, spec: FeatureSetSpec) -> "FeatureSample":
        if self.selected != "full":
            raise ValueError("feature set already selected")
        return FeatureSample(
            frames=self.frames[:, spec.columns()],
            sign_label=self.sign_label,
            signer_id=self.signer_id,
            selected=spec.name,
        )

    def posxy(self):
        """Normalized (x, y) of both hands, used for sequence alignment."""
        cols = np.array([0, 1, HAND_DIM, HAND_DIM + 1], dtype=np.intp)
        if self.selected != "full":
            raise ValueError("posxy requires the full matrix")
        return self.frames[:, cols]


def save_sample(sample: FeatureSample, path, key=""):
    """Write `sample` as a record; `key` tags what it was extracted from."""
    meta = {"label": sample.sign_label, "signer": sample.signer_id,
            "selected": sample.selected, "key": key}
    save_record(path, meta, frames=sample.frames)


def load_sample(path, key=None) -> FeatureSample:
    """Read a sample record; if `key` is given it must equal the stored one."""
    meta, arrays = load_record(path)
    if key is not None and meta["key"] != key:
        raise LoadError(f"{path}: stored under a different key")
    return FeatureSample(arrays["frames"], meta["label"], meta["signer"], meta["selected"])


# --- geometry helpers -------------------------------------------------------

def convex_hull(points):
    """Monotone-chain convex hull of integer points, counterclockwise."""
    pts = sorted({(int(p[0]), int(p[1])) for p in points})
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def row_extremes(points):
    """The leftmost and rightmost point of every row (equal y) of a point set.

    Every point lies between its row's two extremes, so these at most 2H
    points have the same convex hull as the whole set.
    """
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    lo = pts.min(axis=0)
    width, height = pts.max(axis=0) - lo + 1
    grid = np.zeros((height, width), dtype=bool)
    grid[pts[:, 1] - lo[1], pts[:, 0] - lo[0]] = True
    rows = np.flatnonzero(grid.any(axis=1))
    left = grid[rows].argmax(axis=1)
    right = width - 1 - grid[rows, ::-1].argmax(axis=1)
    ys = rows + lo[1]
    return np.column_stack([np.concatenate([left, right]) + lo[0], np.concatenate([ys, ys])])


def hull_pixel_count(points):
    """Number of integer pixel centers inside or on the convex hull.

    The hull is built from the row extremes; the count follows from Pick's
    theorem on its integer vertices, count = (2A + B + 2) / 2, with 2A the
    shoelace sum and B the lattice points on the boundary, all exact integer
    arithmetic. A hull of at most two vertices (collinear points) counts the
    distinct points themselves.
    """
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    if len(pts) == 0:
        return 0
    hull = convex_hull(row_extremes(pts))
    if len(hull) <= 2:
        return len({(int(p[0]), int(p[1])) for p in pts})
    twice_area = boundary = 0
    for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1]):
        twice_area += x1 * y2 - x2 * y1
        boundary += math.gcd(x2 - x1, y2 - y1)
    return (twice_area + boundary + 2) // 2


def _mask_points(mask):
    ys, xs = np.nonzero(np.asarray(mask, dtype=bool))
    return xs, ys


def boundary_pixel_count(mask):
    """Pixels of the blob that touch background through a 4-neighbor."""
    m = np.asarray(mask, dtype=bool)
    padded = np.pad(m, 1)
    inner = (
        padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )
    return int((m & ~inner).sum())


def geometric_features(mask, eccentricity_as_printed=True):
    """Area, perimeter, solidity, eccentricity, ellipse axes and orientation.

    The ellipse has the same normalized second central moments as the blob
    (pixel squares integrate to the +1/12 variance correction). Returns the
    7-vector (a, p, s, c, M, m, cos(beta)) and a degeneracy flag; blobs of
    fewer than 3 pixels come back zeroed.
    """
    xs, ys = _mask_points(mask)
    a = xs.size
    if a < 3:
        return np.zeros(7), True
    p = boundary_pixel_count(mask)
    hull_count = hull_pixel_count(np.column_stack([xs, ys]))
    s = a / hull_count

    x = xs.astype(np.float64)
    y = ys.astype(np.float64)
    cx, cy = x.mean(), y.mean()
    mu20 = ((x - cx) ** 2).mean() + 1.0 / 12.0
    mu02 = ((y - cy) ** 2).mean() + 1.0 / 12.0
    mu11 = ((x - cx) * (y - cy)).mean()
    common = math.sqrt(((mu20 - mu02) / 2.0) ** 2 + mu11**2)
    lam1 = (mu20 + mu02) / 2.0 + common
    lam2 = (mu20 + mu02) / 2.0 - common
    major = 4.0 * math.sqrt(max(lam1, 0.0))
    minor = 4.0 * math.sqrt(max(lam2, 0.0))
    ratio = minor / major if major > 0 else 1.0
    if eccentricity_as_printed:
        c = abs(1.0 - ratio)
    else:
        c = math.sqrt(max(0.0, 1.0 - ratio**2))
    theta = 0.5 * math.atan2(2.0 * mu11, mu20 - mu02)
    return np.array([a, p, s, c, major, minor, math.cos(theta)]), False


def hu_moments(mask):
    """The seven Hu invariants from normalized central moments."""
    xs, ys = _mask_points(mask)
    if xs.size < 3:
        return np.zeros(7), True
    # canonical translation makes the invariants bit-exact under shifts
    x = (xs - xs.min()).astype(np.float64)
    y = (ys - ys.min()).astype(np.float64)
    n = x.size
    cx, cy = x.mean(), y.mean()
    dx, dy = x - cx, y - cy

    # dx**p and dy**q for p, q in 1..3, each built once; mu skips a zero power
    xpow = [None, dx, dx**2, dx**3]
    ypow = [None, dy, dy**2, dy**3]

    def mu(p, q):
        if q == 0:
            return float(np.sum(xpow[p]))
        if p == 0:
            return float(np.sum(ypow[q]))
        return float(np.sum(xpow[p] * ypow[q]))

    def eta(p, q):
        return mu(p, q) / n ** (1 + (p + q) / 2.0)

    e20, e02, e11 = eta(2, 0), eta(0, 2), eta(1, 1)
    e30, e03 = eta(3, 0), eta(0, 3)
    e21, e12 = eta(2, 1), eta(1, 2)
    h1 = e20 + e02
    h2 = (e20 - e02) ** 2 + 4 * e11**2
    h3 = (e30 - 3 * e12) ** 2 + (3 * e21 - e03) ** 2
    h4 = (e30 + e12) ** 2 + (e21 + e03) ** 2
    h5 = (e30 - 3 * e12) * (e30 + e12) * (
        (e30 + e12) ** 2 - 3 * (e21 + e03) ** 2
    ) + (3 * e21 - e03) * (e21 + e03) * (3 * (e30 + e12) ** 2 - (e21 + e03) ** 2)
    h6 = (e20 - e02) * ((e30 + e12) ** 2 - (e21 + e03) ** 2) + 4 * e11 * (
        e30 + e12
    ) * (e21 + e03)
    h7 = (3 * e21 - e03) * (e30 + e12) * (
        (e30 + e12) ** 2 - 3 * (e21 + e03) ** 2
    ) - (e30 - 3 * e12) * (e21 + e03) * (3 * (e30 + e12) ** 2 - (e21 + e03) ** 2)
    return np.array([h1, h2, h3, h4, h5, h6, h7]), False


# Clockwise Moore neighborhood, starting west, as (row, column) steps.
_MOORE = ((0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1))


def trace_boundary(mask):
    """Ordered outer boundary of a blob (Moore neighborhood, clockwise).

    The walk runs over the zero-padded mask flattened to a Python list, so a
    neighbor is one precomputed offset away and needs no bounds check.
    """
    m = np.asarray(mask, dtype=bool)
    count = int(np.count_nonzero(m))
    if count == 0:
        return []
    width = m.shape[1] + 2
    padded = np.zeros((m.shape[0] + 2, width), dtype=bool)
    padded[1:-1, 1:-1] = m
    cells = padded.ravel().tolist()
    origin = cells.index(True)  # topmost, then leftmost
    if count == 1:
        return [(origin // width - 1, origin % width - 1)]
    # scan[b]: the 8 (direction, offset) pairs clockwise after direction b
    doubled = list(enumerate(dr * width + dc for dr, dc in _MOORE)) * 2
    scan = [doubled[b + 1 : b + 9] for b in range(8)]

    boundary = [origin]
    current = origin
    backtrack_idx = 0  # we conceptually arrived from the west
    first_move = None
    for _ in range(8 * count):
        for idx, offset in scan[backtrack_idx]:
            nxt = current + offset
            if cells[nxt]:
                break
        else:
            break  # isolated pixel cluster
        if nxt == origin and first_move is not None and idx == first_move:
            break
        if first_move is None:
            first_move = idx
        boundary.append(nxt)
        current = nxt
        # continue scanning from the neighbor before the one we came in on
        backtrack_idx = (idx + 4) % 8
        if current == origin:
            break
    if len(boundary) > 1 and boundary[-1] == origin:
        boundary.pop()
    return [(p // width - 1, p % width - 1) for p in boundary]


# The descriptor tables below are built once, on first use rather than at
# import, so that importing this module does no numpy work.
@functools.cache
def _sc_tables():
    """Radial bin edges and the mask of the off-diagonal point pairs."""
    return np.geomspace(0.125, 2.0, SC_RADIAL_BINS + 1), ~np.eye(SC_POINTS, dtype=bool)


def shape_context(mask):
    """Mean log-polar histogram over 40 boundary points, L1-normalized.

    Distances are normalized by the median pairwise distance, binned into 5
    radial and 9 orientation bins; the 40 per-point histograms are averaged
    into one 45-dim descriptor so the frame dimension stays fixed.
    """
    boundary = trace_boundary(mask)
    if len(boundary) < 3:
        return np.zeros(SC_DIM), True
    n = len(boundary)
    picks = [(k * n) // SC_POINTS for k in range(SC_POINTS)]
    pts = np.array([(boundary[i][1], boundary[i][0]) for i in picks], dtype=np.float64)

    edges, off_diag = _sc_tables()
    diff = (pts[None, :, :] - pts[:, None, :])[off_diag]
    dist = np.hypot(diff[:, 0], diff[:, 1])
    median = np.median(dist)
    if median <= 0:
        return np.zeros(SC_DIM), True

    rbin = np.clip(np.searchsorted(edges, dist / median, side="right") - 1,
                   0, SC_RADIAL_BINS - 1)
    theta = np.arctan2(diff[:, 1], diff[:, 0])
    tbin = np.clip(
        ((theta + np.pi) / (2 * np.pi / SC_ANGLE_BINS)).astype(np.intp),
        0,
        SC_ANGLE_BINS - 1,
    )
    hist = np.bincount(rbin * SC_ANGLE_BINS + tbin, minlength=SC_DIM).astype(np.float64)
    return hist / hist.sum(), False


def resize_bilinear(image, out_h, out_w):
    img = np.asarray(image, dtype=np.float64)
    in_h, in_w = img.shape
    ry = (np.arange(out_h) + 0.5) * in_h / out_h - 0.5
    rx = (np.arange(out_w) + 0.5) * in_w / out_w - 0.5
    ry = np.clip(ry, 0, in_h - 1)
    rx = np.clip(rx, 0, in_w - 1)
    y0 = np.floor(ry).astype(np.intp)
    x0 = np.floor(rx).astype(np.intp)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ry - y0)[:, None]
    wx = (rx - x0)[None, :]
    top = img[np.ix_(y0, x0)] * (1 - wx) + img[np.ix_(y0, x1)] * wx
    bottom = img[np.ix_(y1, x0)] * (1 - wx) + img[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bottom * wy


@functools.cache
def _hog_cell_offset():
    """Per pixel of the resized patch: its 2x2 cell (row-major) times HOG_BINS."""
    half = np.arange(HOG_SIZE) >= HOG_SIZE // 2
    return (2 * half[:, None] + half[None, :]) * HOG_BINS


def hog(crop):
    """36-dim HOG of a hand crop: 2x2 cells of a 32x32 resized patch, 9
    unsigned orientation bins, magnitude weighted, L2-normalized as one block."""
    crop = np.asarray(crop, dtype=np.float64)
    if crop.size == 0 or min(crop.shape) < 2:
        return np.zeros(HOG_DIM), True
    patch = resize_bilinear(crop, HOG_SIZE, HOG_SIZE)
    gy, gx = np.gradient(patch)
    mag = np.hypot(gx, gy)
    ang = np.mod(np.arctan2(gy, gx), np.pi)
    bins = np.clip((ang / (np.pi / HOG_BINS)).astype(np.intp), 0, HOG_BINS - 1)
    # one pass in row-major order adds each cell's magnitudes in the same
    # order as binning the cells one by one
    vec = np.bincount((_hog_cell_offset() + bins).ravel(), weights=mag.ravel(),
                      minlength=HOG_DIM)
    norm = np.linalg.norm(vec)
    if norm == 0:
        return np.zeros(HOG_DIM), True
    return vec / norm, False


# --- sample assembly ---------------------------------------------------------

def positional_features(track, pose, span, width, focal_per_width):
    """Neck-relative position and velocity in shoulder-width units.

    Depth offsets (mm, relative to the torso joint) are converted to an
    image-plane pixel equivalent at torso depth before the same
    normalization, so the block is invariant to the signer's distance.
    """
    nx, ny, _ = pose.require("neck")
    _, _, torso_z = pose.require("torso")
    px, py = track.position
    vx, vy = track.velocity
    x = (px - nx) / span
    y = (py - ny) / span
    depth = track.last_depth
    if np.isfinite(depth) and torso_z > 0:
        focal = focal_per_width * width
        z = (depth - torso_z) * focal / (torso_z * span)
    else:
        z = 0.0
    return np.array([x, y, z, vx / span, vy / span])


def _shape_blocks(obs, rgb, span, cfg):
    geo, geo_bad = geometric_features(obs.mask, cfg.eccentricity_as_printed)
    if not geo_bad:
        geo = geo.copy()
        geo[0] /= span**2          # area
        geo[1] /= span             # perimeter
        geo[4] /= span             # major axis
        geo[5] /= span             # minor axis
    hu, _ = hu_moments(obs.mask)
    sc, _ = shape_context(obs.mask)
    x, y, w, h = obs.bbox
    crop = to_gray(rgb[y : y + h, x : x + w]) * obs.mask
    hg, _ = hog(crop)
    return np.concatenate([geo, hu, sc, hg])


_SHAPE_WIDTH = 7 + 7 + SC_DIM + HOG_DIM


def assemble(seq, seg_result, cfg) -> FeatureSample:
    """Per-frame feature matrix for one segmented sequence (full layout,
    right hand first). Shape blocks freeze during hand-over-hand occlusion
    and across missed detections."""
    from .dataio import shoulder_distance

    span = shoulder_distance(seq)
    width = seq.frame_shape[1]
    rows = []
    frozen = {"left": np.zeros(_SHAPE_WIDTH), "right": np.zeros(_SHAPE_WIDTH)}
    for t, frame in enumerate(seg_result.frames):
        pose = seq.skeleton[t]
        rgb = seq.color_frames[t]
        hands = []
        for hand, obs, track in (
            ("right", frame.right, frame.right_track),
            ("left", frame.left, frame.left_track),
        ):
            pos = positional_features(track, pose, span, width, cfg.focal_per_width)
            jx, jy, _ = pose.joints.get(f"hand_{hand}", (np.nan, np.nan, np.nan))
            nx, ny, _ = pose.require("neck")
            kinect = np.array([(jx - nx) / span, (jy - ny) / span])
            if obs is not None and not obs.shape_frozen:
                shape = _shape_blocks(obs, rgb, span, cfg)
                frozen[hand] = shape
            else:
                shape = frozen[hand]
            hands.append(np.concatenate([pos, [0.0], kinect, shape]))
        rows.append(np.concatenate(hands))
    if not rows:
        raise ValueError("no usable frames in sequence")
    frames = np.vstack(rows)
    # pos layout per hand: x, y, z, vx, vy, vz (vz from depth differences)
    for base in (0, HAND_DIM):
        z = frames[:, base + 2]
        vz = np.zeros_like(z)
        vz[1:] = np.diff(z)
        frames[:, base + 5] = vz
    return FeatureSample(
        frames=frames,
        sign_label=seq.sign_label or "",
        signer_id=seq.signer_id,
    )


def hand_travel(sample: FeatureSample, hand):
    """Total path length and mean speed of one hand, in shoulder widths."""
    base = 0 if hand == "right" else HAND_DIM
    xy = sample.frames[:, base : base + 2]
    if len(xy) < 2:
        return 0.0, 0.0
    steps = np.hypot(np.diff(xy[:, 0]), np.diff(xy[:, 1]))
    path = float(steps.sum())
    return path, path / (len(xy) - 1)


def zero_idle_hand(sample: FeatureSample, path_threshold=0.5,
                   speed_threshold=0.02) -> FeatureSample:
    """Zero every block of a hand that barely moves over the whole sample.

    Idle means total travel below path_threshold shoulder widths and mean
    speed below speed_threshold shoulder widths per frame. Idempotent.
    """
    if sample.selected != "full":
        raise ValueError("idle-hand zeroing applies to the full matrix")
    frames = sample.frames.copy()
    for hand, base in (("right", 0), ("left", HAND_DIM)):
        path, speed = hand_travel(sample, hand)
        if path < path_threshold and speed < speed_threshold:
            frames[:, base : base + HAND_DIM] = 0.0
    return FeatureSample(
        frames=frames,
        sign_label=sample.sign_label,
        signer_id=sample.signer_id,
        selected=sample.selected,
    )
