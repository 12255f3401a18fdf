"""Hand segmentation from RGB-D frames.

Skin color is modeled by a pair of histograms over normalized (r, g)
chromaticity, adapted online to the current signer. Candidate hand pixels
are skin pixels that also changed since the previous frame; after
morphological cleanup the surviving blobs are ranked by depth, size and
proximity to the tracker predictions. Depth resolves hand-over-face
occlusion; template matching of the last pre-occlusion shapes resolves
hand-over-hand occlusion.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import dataio, tracking


# the tuning of segmentation, set at 160 x 120: bins per axis of the (r, g)
# histograms, the skin/nonskin likelihood-ratio threshold, the adaptive skin
# model's update weight, the gray-level change that counts as motion, the
# face depth model's update rate, the fewest pixels a blob keeps, and the
# frames a track coasts without a measurement before it is re-seeded
HIST_BINS = 32
SKIN_THRESHOLD = 1.0
SKIN_ALPHA = 0.2
MOTION_THRESHOLD = 12.0
FACE_UPDATE_RATE = 0.3
MIN_BLOB_AREA = 30
MAX_COAST = 15


# --- color ------------------------------------------------------------------

def rg_normalize(rgb):
    """Map 8-bit RGB to normalized (r, g) chromaticity.

    Black pixels (R+G+B = 0) map to the uninformative point (1/3, 1/3).
    Accepts a single pixel or an array with a trailing channel axis. This is
    the formula `_rg_table` tabulates for `rg_bins`.
    """
    arr = np.asarray(rgb, dtype=np.float64)
    total = arr[..., 0] + arr[..., 1] + arr[..., 2]
    safe = np.where(total > 0, total, 3.0)
    r = np.where(total > 0, arr[..., 0] / safe, 1.0 / 3.0)
    g = np.where(total > 0, arr[..., 1] / safe, 1.0 / 3.0)
    return r, g


def mean(values):
    """ndarray.mean of a non-empty array, as a float: the float64 sum over
    the count, without mean's Python-level wrapper."""
    return float(np.add.reduce(values, axis=None, dtype=np.float64)) / values.size


def median(values):
    """np.median of a non-empty 1-D float array without NaNs: the middle
    order statistic, or the mean of the two middle ones, without np.median's
    Python-level overhead."""
    half = values.size // 2
    if values.size % 2:
        return float(np.partition(values, half)[half])
    middle = np.partition(values, (half - 1, half))
    return (float(middle[half - 1]) + float(middle[half])) / 2


def to_gray(rgb):
    arr = np.asarray(rgb, dtype=np.float64)
    return 0.299 * arr[..., 0] + 0.587 * arr[..., 1] + 0.114 * arr[..., 2]


# channel sums of 8-bit pixels run from 0 to 3 * 255
_TOTALS = 766


def read_only(table):
    """`table`, made read-only: a cached table is shared by every caller."""
    table.setflags(write=False)
    return table


@functools.cache
def _rg_table(bins):
    """Bin of channel value c at channel sum `total`, flat at c * 766 + total.

    Every (c, total) pair goes through `rg_normalize` and the same float
    expression as binning one pixel, so a lookup equals that computation.
    Built once per `bins`, on first use; pairs no 8-bit pixel has (total < c)
    land in some bin and are never read.
    """
    table = np.empty((256, _TOTALS), dtype=np.min_scalar_type(bins - 1))
    total = np.arange(_TOTALS)
    for c in range(256):
        pixels = np.column_stack([np.full(_TOTALS, c), total - c, np.zeros(_TOTALS)])
        r, _ = rg_normalize(pixels)
        table[c] = np.minimum((r * bins).astype(np.intp), bins - 1)
    return read_only(table.ravel())


def rg_bins(rgb, bins):
    """Flat (r, g) histogram bin, ir * bins + ig, of every pixel.

    `rgb` holds 8-bit channel values (a uint8 frame or a parsed pixel list);
    each channel's bin is read from `_rg_table` at (value, R + G + B).
    """
    rgb = np.asarray(rgb)
    red = rgb[..., 0].astype(np.intp)
    green = rgb[..., 1].astype(np.intp)
    total = red + green
    total += rgb[..., 2].astype(np.intp)
    red *= _TOTALS
    red += total
    green *= _TOTALS
    green += total
    table = _rg_table(bins)
    flat = table[red].astype(np.intp)
    flat *= bins
    flat += table[green]
    return flat


def _bin_counts(flat_bins, bins):
    flat = np.bincount(flat_bins, minlength=bins * bins)
    return flat.reshape(bins, bins).astype(np.float64)


@dataclass
class SkinHistogram:
    """Skin and non-skin (bins, bins) counts over (r, g) chromaticity bins."""

    skin_counts: np.ndarray
    nonskin_counts: np.ndarray

    @property
    def bins(self):
        return self.skin_counts.shape[0]

    @classmethod
    def from_pixels(cls, skin_rgb, nonskin_rgb, bins):
        """Histograms of two lists of 8-bit (R, G, B) pixels."""
        return cls.from_bins(rg_bins(np.reshape(skin_rgb, (-1, 3)), bins),
                             rg_bins(np.reshape(nonskin_rgb, (-1, 3)), bins), bins)

    @classmethod
    def from_bins(cls, skin_bins, nonskin_bins, bins):
        """Histograms of pixels given by their `rg_bins`."""
        return cls(_bin_counts(skin_bins, bins), _bin_counts(nonskin_bins, bins))

    def ratio_table(self):
        """Laplace-smoothed P(bin|skin) / P(bin|nonskin) for every bin."""
        n = self.bins * self.bins
        skin_total = self.skin_counts.sum()
        if skin_total <= 0:
            raise ValueError("skin histogram is empty")
        p_skin = (self.skin_counts + 1.0) / (skin_total + n)
        p_non = (self.nonskin_counts + 1.0) / (self.nonskin_counts.sum() + n)
        return p_skin / p_non

    def lookup(self, flat_bins, threshold):
        """Skin mask of pixels given by their `rg_bins`."""
        return (self.ratio_table() > threshold).ravel()[flat_bins]


def update_adaptive_model(model: SkinHistogram, skin_bins, nonskin_bins, alpha) -> SkinHistogram:
    """Blend per-bin counts: (1 - alpha) * previous + alpha * current pixels.

    The current pixels are given by their `rg_bins` under `model.bins`.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    current = SkinHistogram.from_bins(skin_bins, nonskin_bins, model.bins)
    return SkinHistogram(
        skin_counts=(1.0 - alpha) * model.skin_counts + alpha * current.skin_counts,
        nonskin_counts=(1.0 - alpha) * model.nonskin_counts + alpha * current.nonskin_counts,
    )


def motion_mask(gray_t, gray_prev, threshold):
    gray_t = np.asarray(gray_t, dtype=np.float64)
    gray_prev = np.asarray(gray_prev, dtype=np.float64)
    if gray_t.shape != gray_prev.shape:
        raise ValueError("frames differ in shape")
    return np.abs(gray_t - gray_prev) > threshold


def body_region(depth, torso_z, front, back):
    """Pixels with a valid depth reading near the torso plane."""
    depth = np.asarray(depth, dtype=np.float64)
    return (depth > 0) & (depth > torso_z - front) & (depth < torso_z + back)


# --- blobs -------------------------------------------------------------------

@dataclass
class Blob:
    """A candidate region and, once assigned, the record of one hand."""

    mask: np.ndarray            # cropped boolean patch
    bbox: tuple[int, int, int, int]   # x, y, w, h in full-image coordinates
    area: int
    centroid: tuple[float, float]
    depth: float = float("nan")       # median depth (mm), set on assignment
    occlusion: str = "none"   # none | hand_over_face | hand_over_hand (placed, shape not read)
    patch: np.ndarray | None = None   # gray pixels of the box times mask, set on assignment

    def median_depth(self, depth_frame):
        x, y, w, h = self.bbox
        patch = np.asarray(depth_frame, dtype=np.float64)[y : y + h, x : x + w]
        values = patch[self.mask & (patch > 0)]
        if values.size == 0:
            return float("nan")
        return median(values)


def _square3(mask, op):
    """`op` (AND or OR) over each pixel's 3x3 neighborhood, outside = False."""
    h, w = mask.shape
    padded = np.zeros((h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1] = mask
    rows = op(op(padded[:, :-2], padded[:, 1:-1]), padded[:, 2:])
    return op(op(rows[:-2], rows[1:-1]), rows[2:])


def _open3(mask):
    """Opening by a 3x3 square: erosion, then dilation, as separable
    row and column passes over a zero border."""
    return _square3(_square3(mask, np.bitwise_and), np.bitwise_or)


def _components(mask):
    """8-connected components of a 2-D boolean mask: a list of (row slice,
    column slice, patch), the patch being the component's pixels inside its
    box, in raster order of each component's first pixel.

    This is the numbering of scipy's `ndimage.label` with a 3x3 structure,
    and the boxes of its `find_objects`. It is the run-based two-scan method
    (Rosenfeld & Pfaltz 1966; He, Chao & Suzuki 2008): one nonzero over the
    mask, flattened with a zero column on each side of every row, finds every
    row's runs of set pixels; a run joins each run of the row above whose
    columns come within one pixel of its own, in a union-find that keeps the
    lower run index as root. Runs are in raster order, so a root is its
    component's first run, and roots in order number the components.
    """
    # array methods rather than numpy's wrapper functions throughout: a frame
    # has a few dozen runs, so call overhead is most of the cost
    h, w = mask.shape
    stride = w + 2
    padded = np.zeros((h, stride), dtype=bool)
    padded[:, 1:-1] = mask
    flat = padded.ravel()
    edges = (flat[1:] != flat[:-1]).nonzero()[0]
    if edges.size == 0:
        return []
    # mask pixel (r, c) sits at flat r * stride + c + 1, and run i covers
    # flat starts[i] + 1 .. stops[i]: starts[i] // stride is its row and
    # starts[i] % stride its first column
    starts, stops = edges[0::2], edges[1::2]
    n = starts.size
    # the runs of the row above that a run touches, as the index range
    # [first, last): that row's runs, moved one row down, end at or after
    # the run's start and start at or before its stop
    first = (stops + stride).searchsorted(starts, "left")
    last = (starts + stride).searchsorted(stops, "right")
    # each run joins the first run it touches above, a lower index
    parent = np.where(last > first, first, np.arange(n)).tolist()

    def root(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    # a run touching several runs above joins their sets
    for i in (last - first > 1).nonzero()[0].tolist():
        for j in range(int(first[i]) + 1, int(last[i])):
            a, b = root(j), root(i)
            if a != b:
                parent[max(a, b)] = min(a, b)
    # a parent precedes its child, so one pass in order resolves every root
    for k in range(n):
        parent[k] = parent[parent[k]]
    roots = np.array(parent)
    heads = roots == np.arange(n)                  # each component's first run
    run_label = heads.cumsum()[roots]              # components numbered from 1
    lengths = stops - starts
    labels = np.zeros(flat.size, dtype=np.intp)
    labels[flat] = run_label.repeat(lengths)
    labels = labels.reshape(h, stride)[:, 1:-1]

    # each component's box, over its runs grouped in raster order
    order = run_label.argsort(kind="stable")
    groups = heads[order].nonzero()[0]
    run_row, col = np.divmod(starts[order], stride)
    tops = run_row[groups].tolist()
    bottoms = np.maximum.reduceat(run_row, groups).tolist()
    lefts = np.minimum.reduceat(col, groups).tolist()
    rights = np.maximum.reduceat(col + lengths[order], groups).tolist()
    out = []
    for k, (top, bottom, left, right) in enumerate(zip(tops, bottoms, lefts, rights), 1):
        rows, cols = slice(top, bottom + 1), slice(left, right)
        out.append((rows, cols, labels[rows, cols] == k))
    return out


def clean_mask(cand, min_area):
    """Open the candidate mask with a 3x3 square and return the surviving blobs.

    `cand` is the boolean mask `SequenceSegmenter.step` has built, skin, body
    region and (after the first frame) motion already ANDed. Components use
    8-connectivity; components below min_area are dropped. They come from
    `_components`, numbered as scipy's `ndimage.label` (the tests' oracle)
    numbers them.
    Only the bounding box of the candidates is opened and labelled: the
    opening cannot grow past it, and cropping keeps the raster order in which
    components are numbered, so the blobs and their order are those of the
    whole frame.
    """
    rows = np.flatnonzero(cand.any(axis=1))
    if rows.size == 0:
        return []
    cols = np.flatnonzero(cand.any(axis=0))
    top, left = int(rows[0]), int(cols[0])
    crop = cand[top : int(rows[-1]) + 1, left : int(cols[-1]) + 1]
    blobs = []
    for box_rows, box_cols, patch in _components(_open3(crop)):
        area = int(np.count_nonzero(patch))
        if area < min_area:
            continue
        ys, xs = np.nonzero(patch)
        x0, y0 = box_cols.start + left, box_rows.start + top
        blobs.append(
            Blob(
                mask=patch,
                bbox=(x0, y0, patch.shape[1], patch.shape[0]),
                area=area,
                centroid=(mean(xs) + x0, mean(ys) + y0),
            )
        )
    return blobs


# --- hand assignment ----------------------------------------------------------

# a hand whose best blob scores below this is missing; the depth and
# proximity scores fall linearly to 0 over these mm and px (tuned at 160 x 120),
# and the depth, size and proximity scores weigh BLOB_WEIGHT each
MIN_ASSIGN_SCORE = 0.4
DEPTH_SCORE_SCALE = 1000.0
PROXIMITY_SCALE = 80.0
BLOB_WEIGHT = 1.0 / 3.0


def _blob_score(blob: Blob, pred, blob_depth):
    """Score of `blob` for the hand whose predicted `tracking.HandTrack` is
    `pred`."""
    if np.isnan(blob_depth) or np.isnan(pred.last_depth):
        depth_score = 0.5
    else:
        depth_score = max(0.0, 1.0 - abs(blob_depth - pred.last_depth) / DEPTH_SCORE_SCALE)
    bw, bh = pred.box_state[:2]
    px, py = pred.motion_state[:2]
    pred_area = max(bw * bh, 1.0)
    size_score = min(blob.area, pred_area) / max(blob.area, pred_area)
    dist = float(np.hypot(blob.centroid[0] - px, blob.centroid[1] - py))
    prox_score = max(0.0, 1.0 - dist / PROXIMITY_SCALE)
    return BLOB_WEIGHT * depth_score + BLOB_WEIGHT * size_score + BLOB_WEIGHT * prox_score


def rank_and_assign(blobs, pred_left, pred_right, depth_frame, allow_shared=False):
    """Assign the best-scoring blob to each hand.

    `pred_left` and `pred_right` are the predicted `tracking.HandTrack`s.
    Scores combine depth agreement, size agreement and proximity to the
    predicted position, each in [0, 1]. Assignment is one-to-one unless
    allow_shared is set (hand-overlap flagged by the tracker). A hand whose
    best score falls below MIN_ASSIGN_SCORE is reported missing (None).
    Each hand gets its own copy of its blob, with the blob's median depth.
    """
    depths = [blob.median_depth(depth_frame) for blob in blobs]
    scores = {}
    for hand, pred in (("right", pred_right), ("left", pred_left)):
        for i, blob in enumerate(blobs):
            scores[(hand, i)] = _blob_score(blob, pred, depths[i])

    assigned = {}
    taken = set()
    # right hand first on ties, then lower blob index
    order = sorted(
        scores.items(),
        key=lambda kv: (-kv[1], kv[0][0] != "right", kv[0][1]),
    )
    for (hand, i), score in order:
        if hand in assigned:
            continue
        if not allow_shared and i in taken:
            continue
        if score < MIN_ASSIGN_SCORE:
            continue
        assigned[hand] = i
        taken.add(i)

    def build(hand):
        if hand not in assigned:
            return None
        i = assigned[hand]
        return dataclasses.replace(blobs[i], depth=depths[i])

    return build("left"), build("right")


# --- occlusion ----------------------------------------------------------------

@dataclass
class FaceDepthModel:
    bbox: tuple[int, int, int, int]
    depth: np.ndarray
    valid: np.ndarray

    @classmethod
    def from_frame(cls, depth_frame, bbox):
        x, y, w, h = bbox
        patch = np.asarray(depth_frame, dtype=np.float64)[y : y + h, x : x + w]
        return cls(bbox=bbox, depth=patch.copy(), valid=patch > 0)

    def update(self, depth_frame, rate, exclude=None):
        """Blend current depths into the model at `rate`, skipping excluded
        pixels and invalid readings."""
        x, y, w, h = self.bbox
        patch = np.asarray(depth_frame, dtype=np.float64)[y : y + h, x : x + w]
        ok = patch > 0
        if exclude is not None:
            ok &= ~exclude
        fresh = ok & ~self.valid
        blend = ok & self.valid
        self.depth[blend] = (1.0 - rate) * self.depth[blend] + rate * patch[blend]
        self.depth[fresh] = patch[fresh]
        self.valid |= fresh


def resolve_face_occlusion(depth_frame, face_model: FaceDepthModel, threshold):
    """Foreground (hand) pixels of the face box, shaped like it: those with
    a reading where the face model sits more than threshold mm behind it.
    The model is not changed; its update excludes these pixels, so the hand
    never bleeds into it.
    """
    x, y, w, h = face_model.bbox
    patch = np.asarray(depth_frame, dtype=np.float64)[y : y + h, x : x + w]
    usable = (patch > 0) & face_model.valid
    return usable & (face_model.depth - patch > threshold)


def match_template(joint_mask, template):
    """Best placement of a template mask inside a joint blob mask.

    Returns (dy, dx), as Python ints: the template origin relative to the
    joint mask origin that maximizes the overlap (intersection count).
    """
    template = np.asarray(template, dtype=bool)
    joint = np.asarray(joint_mask, dtype=bool)
    th, tw = template.shape
    jh, jw = joint.shape
    padded = np.zeros((jh + 2 * (th - 1), jw + 2 * (tw - 1)), dtype=np.float64)
    padded[th - 1 : th - 1 + jh, tw - 1 : tw - 1 + jw] = joint
    windows = sliding_window_view(padded, (th, tw))
    overlap = np.einsum("ijkl,kl->ij", windows, template.astype(np.float64))
    best = np.unravel_index(int(np.argmax(overlap)), overlap.shape)
    return int(best[0]) - (th - 1), int(best[1]) - (tw - 1)


def place_hand(joint: Blob, template, fallback, shape, depth_frame) -> Blob:
    """A hand placed by its pre-occlusion shape inside a hand-over-hand blob.

    The template slides over the joint blob, and the placement maximizing the
    overlap wins; the centroid is that placement's origin plus the template's
    mean pixel. A hand whose template no longer fits (joint blob smaller than
    the template) is centred on `fallback`, its predicted position. The box is
    then clamped to the (h, w) frame `shape`."""
    th, tw = template.shape
    h, w = shape
    ys, xs = np.nonzero(template)
    area = int(xs.size)
    mean_x, mean_y = float(xs.mean()), float(ys.mean())
    if joint.area < area:
        cx, cy = float(fallback[0]), float(fallback[1])
        x0, y0 = int(round(cx - mean_x)), int(round(cy - mean_y))
    else:
        dy, dx = match_template(joint.mask, template)
        x0, y0 = joint.bbox[0] + dx, joint.bbox[1] + dy
        cx, cy = x0 + mean_x, y0 + mean_y
    blob = Blob(
        mask=template.copy(),
        bbox=(min(max(x0, 0), w - tw), min(max(y0, 0), h - th), tw, th),
        area=area,
        centroid=(cx, cy),
        occlusion="hand_over_hand",
    )
    blob.depth = blob.median_depth(depth_frame)
    return blob


# --- per-sequence driver --------------------------------------------------------

HANDS = ("left", "right")


@dataclass
class FrameResult:
    left: Blob | None
    right: Blob | None
    left_track: "object"
    right_track: "object"


@dataclass
class SegmentationResult:
    span: float                       # shoulder span (px) the frames were read at
    width: int                        # frame width (px)
    frames: list[FrameResult]


def _face_box(pose, span, shape):
    h, w = shape
    hx, hy, _ = pose.joints.get("head", pose.joints["neck"])
    half = 0.45 * span
    x0 = int(max(0, np.floor(hx - half)))
    y0 = int(max(0, np.floor(hy - half)))
    x1 = int(min(w, np.ceil(hx + half)))
    y1 = int(min(h, np.ceil(hy + half)))
    return (x0, y0, max(1, x1 - x0), max(1, y1 - y0))


class SequenceSegmenter:
    """One sequence's segmentation state, advanced in frame order by `step`:
    the signer's skin model, the face depth model, one Kalman track per hand
    and each hand's last unoccluded shape. Chromaticity is binned with the
    general skin model's bin count. `reset(span)` starts a sequence of
    shoulder span `span` px; the next `step` boots the state from its frame."""

    def __init__(self, general_model: SkinHistogram, cfg):
        self.general_model = general_model
        self.cfg = cfg

    def reset(self, span):
        self.span = span
        self.signer_model = None      # fitted at boot unless no boot pixel is skin
        self.face_model = None
        self.tracks = None
        self.templates = {hand: None for hand in HANDS}
        self.gray = None              # the last frame, for the motion mask
        self.candidates = None        # the last frame's candidate mask

    def frames(self, seq):
        """Segment the frames of `seq` in order, reading one at a time, and
        yield each one's FrameResult."""
        self.reset(dataio.shoulder_distance(seq))
        for t in range(len(seq)):
            yield self.step(seq.color_frames[t], seq.depth_frames[t], seq.skeleton[t])

    def run(self, seq) -> SegmentationResult:
        """Segment every frame of `seq`."""
        frames = list(self.frames(seq))
        return SegmentationResult(self.span, self.gray.shape[1], frames)

    def dump(self, seq, out_dir):
        """Segment `seq`, appending each frame's gray image, candidate mask
        (255) and hand masks (128 left, 255 right) to the 8-bit PGM streams
        frames.pgm, candidates.pgm and hands.pgm in `out_dir`."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with (open(out / "frames.pgm", "wb") as grays,
              open(out / "candidates.pgm", "wb") as candidates,
              open(out / "hands.pgm", "wb") as hands):
            for frame in self.frames(seq):
                dataio.append_pgm8(grays, np.clip(self.gray, 0, 255).astype(np.uint8))
                dataio.append_pgm8(candidates, self.candidates.astype(np.uint8) * 255)
                labels = np.zeros(self.gray.shape, dtype=np.uint8)
                for value, o in ((128, frame.left), (255, frame.right)):
                    if o is not None:
                        x, y, w, h = o.bbox
                        labels[y : y + h, x : x + w][o.mask] = value
                dataio.append_pgm8(hands, labels)

    def _seed(self, pose, hand, box):
        """A track started at the skeleton's hand joint."""
        jx, jy, jz = pose.joints[f"hand_{hand}"]
        return tracking.HandTrack.seed((jx, jy), box=box, depth=jz)

    def _boot(self, frame_bins, body, depth, pose):
        """Fit the signer's skin model, the face depth model and both tracks
        to the first frame, and return its candidates: the pixels of the body
        that the general model calls skin."""
        boot = self.general_model.lookup(frame_bins, SKIN_THRESHOLD) & body
        if boot.any():
            self.signer_model = SkinHistogram.from_bins(
                frame_bins[boot], frame_bins[body & ~boot], self.general_model.bins
            )
        self.face_model = FaceDepthModel.from_frame(
            depth, _face_box(pose, self.span, depth.shape)
        )
        box = (0.5 * self.span, 0.5 * self.span)
        self.tracks = {hand: self._seed(pose, hand, box) for hand in HANDS}
        return boot

    def step(self, rgb, depth, pose) -> FrameResult:
        """Segment and track both hands in the sequence's next frame."""
        cfg = self.cfg
        depth = np.asarray(depth, dtype=np.float64)
        shape = depth.shape
        gray = to_gray(rgb)
        body = body_region(depth, pose.joints["torso"][2], cfg.body_depth_front,
                           cfg.body_depth_back)

        # one chromaticity pass per frame: the boot model, the skin
        # candidates, the hand-over-face skin test and the adaptive
        # update all read these bins
        frame_bins = rg_bins(rgb, self.general_model.bins)
        booting = self.tracks is None
        if booting:
            cand = self._boot(frame_bins, body, depth, pose)
        model = self.general_model if self.signer_model is None else self.signer_model
        skin_now = model.lookup(frame_bins, SKIN_THRESHOLD)
        if not booting:
            cand = skin_now & body & motion_mask(gray, self.gray, MOTION_THRESHOLD)

        predicted = {h: tracking.predict(self.tracks[h]) for h in HANDS}
        windows = {h: tracking.search_window(predicted[h], shape) for h in HANDS}

        # hand-over-face: depth against the face model recovers hand pixels,
        # and the model then learns the rest of its box, once a frame
        fx, fy, fw, fh = self.face_model.bbox
        face_rect = (fx, fy, fx + fw, fy + fh)
        near_face = any(tracking.windows_intersect(windows[h], face_rect) for h in HANDS)
        fg = None
        if near_face:
            fg = resolve_face_occlusion(depth, self.face_model, cfg.face_depth_threshold)
            cand[fy : fy + fh, fx : fx + fw] |= fg & skin_now[fy : fy + fh, fx : fx + fw]
        self.face_model.update(depth, FACE_UPDATE_RATE, exclude=fg)

        blobs = clean_mask(cand, min_area=MIN_BLOB_AREA)

        overlap = tracking.detect_overlap(windows["left"], windows["right"], blobs)
        if overlap and all(self.templates[h] is not None for h in HANDS):
            joint = max(blobs, key=lambda b: b.area)
            obs = {
                h: place_hand(joint, self.templates[h], predicted[h].position, shape, depth)
                for h in HANDS
            }
        else:
            obs = dict(zip(HANDS, rank_and_assign(
                blobs, predicted["left"], predicted["right"], depth, allow_shared=overlap,
            )))
            for hand, o in obs.items():
                if o is None:
                    continue
                if near_face and tracking.point_inside(o.centroid, face_rect):
                    o.occlusion = "hand_over_face"
                else:
                    self.templates[hand] = o.mask.copy()
        for o in obs.values():
            if o is not None:
                x, y, w, h = o.bbox
                o.patch = gray[y : y + h, x : x + w] * o.mask

        for hand in HANDS:
            track = predicted[hand]
            o = obs[hand]
            if o is not None and all(map(math.isfinite, o.centroid)):
                track = tracking.update(track, o.centroid, (o.bbox[2], o.bbox[3]),
                                        depth=o.depth)
            elif track.coast_count > MAX_COAST:
                track = self._seed(pose, hand, track.box)
            self.tracks[hand] = track

        # the boot frame's pixels already made the signer model
        if self.signer_model is not None and not booting:
            hands_mask = np.zeros(shape, dtype=bool)
            for o in obs.values():
                if o is not None:
                    x, y, w, h = o.bbox
                    hands_mask[y : y + h, x : x + w] |= o.mask
            if hands_mask.any():
                nonskin = body & ~hands_mask & ~cand
                self.signer_model = update_adaptive_model(
                    self.signer_model, frame_bins[hands_mask], frame_bins[nonskin], SKIN_ALPHA)

        self.gray, self.candidates = gray, cand
        return FrameResult(obs["left"], obs["right"], self.tracks["left"],
                           self.tracks["right"])

