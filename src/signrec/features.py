"""Per-frame hand descriptors and feature-sample assembly.

Each frame yields, per hand: normalized position and velocity relative to
the neck/torso, a geometric block (area, perimeter, solidity, eccentricity,
ellipse axes, orientation), Hu invariant moments, a shape-context histogram
of the blob boundary, and a HOG patch descriptor. Samples always hold the
full block matrix; named feature sets select columns from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dataio import LoadError, load_record, save_record
from .segmentation import mean, median, read_only, to_gray

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

    def __len__(self):
        return len(self.frames)

    def posxy(self):
        """Normalized (x, y) of both hands, used for sequence alignment."""
        cols = np.array([0, 1, HAND_DIM, HAND_DIM + 1], dtype=np.intp)
        return self.frames[:, cols]


def save_sample(sample: FeatureSample, path, key=""):
    """Write `sample` as a record; `key` tags what it was extracted from."""
    meta = {"label": sample.sign_label, "signer": sample.signer_id, "key": key}
    save_record(path, meta, frames=sample.frames)


def load_sample(path, key=None) -> FeatureSample:
    """Read a sample record; if `key` is given it must equal the stored one."""
    meta, arrays = load_record(path, ("frames",), {"label": str, "signer": str, "key": str})
    if key is not None and meta["key"] != key:
        raise LoadError(f"{path}: stored under a different key")
    frames = arrays["frames"]
    if frames.ndim != 2 or frames.dtype != np.float64:
        raise LoadError(f"{path}: frames of {frames.dtype} {frames.shape}, not 2-D float64")
    return FeatureSample(frames, meta["label"], meta["signer"])


# --- geometry helpers -------------------------------------------------------

def convex_hull(points):
    """Monotone-chain convex hull of integer points, counterclockwise."""
    pts = sorted({(int(x), int(y)) for x, y in points})
    if len(pts) <= 2:
        return pts
    chains = []
    for sweep in (pts, pts[::-1]):
        chain = []
        for p in sweep:
            px, py = p
            # pop while the last two points and p do not turn left
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0:
                    break
                chain.pop()
            chain.append(p)
        chains.append(chain[:-1])
    return chains[0] + chains[1]


def _grid_row_extremes(grid):
    """(x, y) of the leftmost and rightmost set cell of every row of a boolean
    grid: at most 2H points with the same convex hull as all set cells."""
    rows = np.flatnonzero(grid.any(axis=1))
    filled = grid[rows]
    left = filled.argmax(axis=1).tolist()
    right = (grid.shape[1] - 1 - filled[:, ::-1].argmax(axis=1)).tolist()
    ys = rows.tolist()
    return list(zip(left, ys)) + list(zip(right, ys))


def _hull_lattice_count(hull, distinct):
    """Integer pixel centers inside or on a hull of integer vertices, by
    Pick's theorem, count = (2A + B + 2) / 2: 2A is the shoelace sum and B
    the lattice points on the boundary, all exact integer arithmetic. A hull
    of at most two vertices (collinear points) counts the `distinct` points
    themselves."""
    if len(hull) <= 2:
        return distinct
    twice_area = boundary = 0
    for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1]):
        twice_area += x1 * y2 - x2 * y1
        boundary += math.gcd(x2 - x1, y2 - y1)
    return (twice_area + boundary + 2) // 2


# np.sum of an array without its Python-level wrapper
_sum = np.add.reduce


def _mask_points(mask):
    ys, xs = np.nonzero(np.asarray(mask, dtype=bool))
    return xs, ys


def boundary_pixel_count(mask):
    """Pixels of the blob that touch background through a 4-neighbor."""
    m = np.asarray(mask, dtype=bool)
    padded = np.zeros((m.shape[0] + 2, m.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = m
    inner = padded[:-2, 1:-1] & padded[2:, 1:-1]
    inner &= padded[1:-1, :-2]
    inner &= padded[1:-1, 2:]
    inner &= m
    return int(np.count_nonzero(m)) - int(np.count_nonzero(inner))


def geometric_features(mask, eccentricity_as_printed=True, points=None):
    """Area, perimeter, solidity, eccentricity, ellipse axes and orientation.

    The ellipse has the same normalized second central moments as the blob
    (pixel squares integrate to the +1/12 variance correction). Returns the
    7-vector (a, p, s, c, M, m, cos(beta)), zeros for blobs of fewer than 3
    pixels. `points` is the mask's `_mask_points`, when the caller has them.
    """
    mask = np.asarray(mask, dtype=bool)
    xs, ys = _mask_points(mask) if points is None else points
    a = xs.size
    if a < 3:
        return np.zeros(7)
    p = boundary_pixel_count(mask)
    s = a / _hull_lattice_count(convex_hull(_grid_row_extremes(mask)), a)

    x = xs.astype(np.float64)
    y = ys.astype(np.float64)
    dx = x - mean(x)
    dy = y - mean(y)
    mu20 = mean(dx**2) + 1.0 / 12.0
    mu02 = mean(dy**2) + 1.0 / 12.0
    mu11 = mean(dx * dy)
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
    return np.array([a, p, s, c, major, minor, math.cos(theta)])


def hu_moments(mask, points=None):
    """The seven Hu invariants from normalized central moments, zeros for
    blobs of fewer than 3 pixels. `points` is as in `geometric_features`."""
    xs, ys = _mask_points(mask) if points is None else points
    if xs.size < 3:
        return np.zeros(7)
    # canonical translation makes the invariants bit-exact under shifts
    x = (xs - xs.min()).astype(np.float64)
    y = (ys - ys.min()).astype(np.float64)
    n = x.size
    dx, dy = x - mean(x), y - mean(y)

    # dx**p and dy**q for p, q in 1..3, each built once; mu skips a zero power
    xpow = [None, dx, dx**2, dx**3]
    ypow = [None, dy, dy**2, dy**3]

    def mu(p, q):
        if q == 0:
            return float(_sum(xpow[p]))
        if p == 0:
            return float(_sum(ypow[q]))
        return float(_sum(xpow[p] * ypow[q]))

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
    return np.array([h1, h2, h3, h4, h5, h6, h7])


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
# import, so that importing this module does no numpy work. Every caller
# shares them, so they are read-only.
@functools.cache
def _sc_tables():
    """The inner radial bin edges, and the flat indices of the off-diagonal
    cells of a 40 x 40 pair matrix in row-major order."""
    edges = np.geomspace(0.125, 2.0, SC_RADIAL_BINS + 1)[1:-1]
    pairs = np.flatnonzero(~np.eye(SC_POINTS, dtype=bool))
    return read_only(edges), read_only(pairs)


_SC_PAIRS = SC_POINTS * (SC_POINTS - 1)


def shape_context(mask):
    """Mean log-polar histogram over 40 boundary points, L1-normalized.

    Distances are normalized by the median pairwise distance, binned into 5
    radial and 9 orientation bins; the 40 per-point histograms are averaged
    into one 45-dim descriptor so the frame dimension stays fixed. Each
    ordered pair (i, j), i != j, contributes the offset pts[j] - pts[i].
    Under 3 boundary points or a zero median distance give zeros.
    """
    boundary = trace_boundary(mask)
    if len(boundary) < 3:
        return np.zeros(SC_DIM)
    n = len(boundary)
    ys, xs = np.array([boundary[(k * n) // SC_POINTS] for k in range(SC_POINTS)],
                      dtype=np.float64).T

    inner_edges, pairs = _sc_tables()
    dx = (xs - xs[:, None]).ravel().take(pairs)
    dy = (ys - ys[:, None]).ravel().take(pairs)
    dist = np.hypot(dx, dy)
    scale = median(dist)
    if scale <= 0:
        return np.zeros(SC_DIM)

    # edges below the first inner edge fall in bin 0, past the last in bin 4
    rbin = np.searchsorted(inner_edges, dist / scale, side="right")
    # theta + pi lies in [0, 2 pi], so only theta == pi needs the cap
    tbin = ((np.arctan2(dy, dx) + np.pi) / (2 * np.pi / SC_ANGLE_BINS)).astype(np.intp)
    np.minimum(tbin, SC_ANGLE_BINS - 1, out=tbin)
    rbin *= SC_ANGLE_BINS
    rbin += tbin
    # every pair lands in one bin, so the counts sum to _SC_PAIRS
    return np.bincount(rbin, minlength=SC_DIM) / _SC_PAIRS


@functools.cache
def _resize_axis(in_len, out_len):
    """Bilinear sampling of one axis: the two source indices of every output
    position, stacked (i0, then i1), and the weights 1 - w of i0 and w of i1."""
    r = (np.arange(out_len) + 0.5) * in_len / out_len - 0.5
    r = np.clip(r, 0, in_len - 1)
    i0 = np.floor(r).astype(np.intp)
    i1 = np.minimum(i0 + 1, in_len - 1)
    w = r - i0
    return read_only(np.concatenate([i0, i1])), read_only(1 - w), read_only(w)


def resize_bilinear(image, out_h, out_w):
    """Bilinear resize, sampling at pixel centers, from per-axis tables.

    One gather picks the two source rows of every output row and a second
    the two source columns; each output pixel is then
    (a*(1-wx) + b*wx)*(1-wy) + (c*(1-wx) + d*wx)*wy for its four neighbors.
    """
    img = np.asarray(image, dtype=np.float64)
    in_h, in_w = img.shape
    rows, wy0, wy1 = _resize_axis(in_h, out_h)
    cols, wx0, wx1 = _resize_axis(in_w, out_w)
    corners = img[rows][:, cols]
    # top rows, then bottom rows, each interpolated along x
    horizontal = corners[:, :out_w] * wx0 + corners[:, out_w:] * wx1
    return horizontal[:out_h] * wy0[:, None] + horizontal[out_h:] * wy1[:, None]


@functools.cache
def _hog_cell_offset():
    """Per pixel of the resized patch: its 2x2 cell (row-major) times HOG_BINS."""
    half = np.arange(HOG_SIZE) >= HOG_SIZE // 2
    return read_only((2 * half[:, None] + half[None, :]) * HOG_BINS)


def _gradient(patch):
    """np.gradient of a 2-D array with unit spacing: central differences
    inside, one-sided differences on the border rows and columns."""
    gy = np.empty_like(patch)
    gy[1:-1] = patch[2:] - patch[:-2]
    gy[1:-1] /= 2.0
    gy[0] = patch[1] - patch[0]
    gy[-1] = patch[-1] - patch[-2]
    gx = np.empty_like(patch)
    gx[:, 1:-1] = patch[:, 2:] - patch[:, :-2]
    gx[:, 1:-1] /= 2.0
    gx[:, 0] = patch[:, 1] - patch[:, 0]
    gx[:, -1] = patch[:, -1] - patch[:, -2]
    return gy, gx


def hog(crop):
    """36-dim HOG of a hand crop: 2x2 cells of a 32x32 resized patch, 9
    unsigned orientation bins, magnitude weighted, L2-normalized as one block
    (zeros for a crop under 2 pixels a side or without gradient)."""
    crop = np.asarray(crop, dtype=np.float64)
    if crop.size == 0 or min(crop.shape) < 2:
        return np.zeros(HOG_DIM)
    gy, gx = _gradient(resize_bilinear(crop, HOG_SIZE, HOG_SIZE))
    mag = np.hypot(gx, gy)
    # the angle lies in [0, pi]: only an angle of exactly pi needs the cap
    bins = (np.mod(np.arctan2(gy, gx), np.pi) / (np.pi / HOG_BINS)).astype(np.intp)
    np.minimum(bins, HOG_BINS - 1, out=bins)
    # one pass in row-major order adds each cell's magnitudes in the same
    # order as binning the cells one by one
    bins += _hog_cell_offset()
    vec = np.bincount(bins.ravel(), weights=mag.ravel(), minlength=HOG_DIM)
    norm = math.sqrt(vec.dot(vec))    # np.linalg.norm of a vector
    if norm == 0:
        return np.zeros(HOG_DIM)
    return vec / norm


# --- sample assembly ---------------------------------------------------------

def positional_features(track, pose, span, width, focal_per_width):
    """Neck-relative position and velocity in shoulder-width units.

    Depth offsets (mm, relative to the torso joint) are converted to an
    image-plane pixel equivalent at torso depth before the same
    normalization, so the block is invariant to the signer's distance.
    """
    nx, ny, _ = pose.joints["neck"]
    _, _, torso_z = pose.joints["torso"]
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
    points = _mask_points(obs.mask)
    geo = geometric_features(obs.mask, cfg.eccentricity_as_printed, points)
    geo[0] /= span**2          # area
    geo[1] /= span             # perimeter
    geo[4] /= span             # major axis
    geo[5] /= span             # minor axis
    hu = hu_moments(obs.mask, points)
    sc = shape_context(obs.mask)
    x, y, w, h = obs.bbox
    crop = to_gray(rgb[y : y + h, x : x + w]) * obs.mask
    return np.concatenate([geo, hu, sc, hog(crop)])


_SHAPE_WIDTH = 7 + 7 + SC_DIM + HOG_DIM


def assemble(seq, seg_result, cfg) -> FeatureSample:
    """Per-frame feature matrix for one segmented sequence (full layout,
    right hand first). Shape blocks freeze during hand-over-hand occlusion
    and across missed detections."""
    span = seg_result.span
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
            jx, jy, _ = pose.joints[f"hand_{hand}"]
            nx, ny, _ = pose.joints["neck"]
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
    frames = sample.frames.copy()
    for hand, base in (("right", 0), ("left", HAND_DIM)):
        path, speed = hand_travel(sample, hand)
        if path < path_threshold and speed < speed_threshold:
            frames[:, base : base + HAND_DIM] = 0.0
    return FeatureSample(
        frames=frames,
        sign_label=sample.sign_label,
        signer_id=sample.signer_id,
    )
