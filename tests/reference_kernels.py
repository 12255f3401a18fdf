"""Earlier, plainer implementations of the extraction kernels, kept as oracles.

Each function here computes what a shipped kernel computes, the way it was
written before that kernel was rewritten for speed: whole-frame float
chromaticity, whole-frame labelling, `np.ix_` resizing, a boolean-masked
pair matrix, `np.gradient`/`np.median`/`np.linalg.norm`, a full-frame
ellipse grid and a `pathlib` cache key. `reference_segment` is the
per-sequence segmentation loop as one function, before it became
`SequenceSegmenter.step`. The shipped code must give bit-identical results.
"""

import math
from pathlib import Path

import numpy as np
from scipy import ndimage

from signrec.features import (
    HOG_BINS,
    HOG_DIM,
    HOG_SIZE,
    SC_ANGLE_BINS,
    SC_DIM,
    SC_POINTS,
    SC_RADIAL_BINS,
    _hog_cell_offset,
    trace_boundary,
)
from signrec import dataio, tracking
from signrec.segmentation import (
    Blob,
    FaceDepthModel,
    FrameResult,
    SkinHistogram,
    _face_box,
    _open3,
    body_region,
    match_template,
    motion_mask,
    rank_and_assign,
    resolve_face_occlusion,
    rg_normalize,
    to_gray,
    update_adaptive_model,
)


def rg_bins(rgb, bins):
    r, g = rg_normalize(rgb)
    ir = np.minimum((r * bins).astype(np.intp), bins - 1)
    ig = np.minimum((g * bins).astype(np.intp), bins - 1)
    return ir * bins + ig


def clean_mask(skin, motion=None, min_area=30):
    cand = np.asarray(skin, dtype=bool)
    if motion is not None:
        cand = cand & np.asarray(motion, dtype=bool)
    labels, _ = ndimage.label(_open3(cand), structure=np.ones((3, 3), dtype=bool))
    blobs = []
    for index, slc in enumerate(ndimage.find_objects(labels), start=1):
        if slc is None:
            continue
        patch = labels[slc] == index
        area = int(patch.sum())
        if area < min_area:
            continue
        ys, xs = np.nonzero(patch)
        x0, y0 = slc[1].start, slc[0].start
        blobs.append(Blob(mask=patch, bbox=(x0, y0, patch.shape[1], patch.shape[0]),
                          area=area,
                          centroid=(float(xs.mean()) + x0, float(ys.mean()) + y0)))
    return blobs


def median(values):
    return float(np.median(values))


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


def shape_context(mask):
    boundary = trace_boundary(mask)
    if len(boundary) < 3:
        return np.zeros(SC_DIM)
    n = len(boundary)
    picks = [(k * n) // SC_POINTS for k in range(SC_POINTS)]
    pts = np.array([(boundary[i][1], boundary[i][0]) for i in picks], dtype=np.float64)
    edges = np.geomspace(0.125, 2.0, SC_RADIAL_BINS + 1)
    off_diag = ~np.eye(SC_POINTS, dtype=bool)
    diff = (pts[None, :, :] - pts[:, None, :])[off_diag]
    dist = np.hypot(diff[:, 0], diff[:, 1])
    med = np.median(dist)
    if med <= 0:
        return np.zeros(SC_DIM)
    rbin = np.clip(np.searchsorted(edges, dist / med, side="right") - 1,
                   0, SC_RADIAL_BINS - 1)
    theta = np.arctan2(diff[:, 1], diff[:, 0])
    tbin = np.clip(((theta + np.pi) / (2 * np.pi / SC_ANGLE_BINS)).astype(np.intp),
                   0, SC_ANGLE_BINS - 1)
    hist = np.bincount(rbin * SC_ANGLE_BINS + tbin, minlength=SC_DIM).astype(np.float64)
    return hist / hist.sum()


def hog(crop):
    crop = np.asarray(crop, dtype=np.float64)
    if crop.size == 0 or min(crop.shape) < 2:
        return np.zeros(HOG_DIM)
    patch = resize_bilinear(crop, HOG_SIZE, HOG_SIZE)
    gy, gx = np.gradient(patch)
    mag = np.hypot(gx, gy)
    ang = np.mod(np.arctan2(gy, gx), np.pi)
    bins = np.clip((ang / (np.pi / HOG_BINS)).astype(np.intp), 0, HOG_BINS - 1)
    vec = np.bincount((_hog_cell_offset() + bins).ravel(), weights=mag.ravel(),
                      minlength=HOG_DIM)
    norm = np.linalg.norm(vec)
    if norm == 0:
        return np.zeros(HOG_DIM)
    return vec / norm


def convex_hull(points):
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


def geometric_features(mask, eccentricity_as_printed=True, points=None):
    # `points` is the shipped kernel's shortcut; the reference ignores it
    m = np.asarray(mask, dtype=bool)
    ys, xs = np.nonzero(m)
    a = xs.size
    if a < 3:
        return np.zeros(7)
    padded = np.pad(m, 1)
    inner = padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    p = int((m & ~inner).sum())
    s = a / hull_pixel_count(np.column_stack([xs, ys]))
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
    return np.array([a, p, s, c, major, minor, math.cos(theta)])


def hu_moments(mask, points=None):
    # `points` is the shipped kernel's shortcut; the reference ignores it
    ys, xs = np.nonzero(np.asarray(mask, dtype=bool))
    if xs.size < 3:
        return np.zeros(7)
    x = (xs - xs.min()).astype(np.float64)
    y = (ys - ys.min()).astype(np.float64)
    n = x.size
    dx, dy = x - x.mean(), y - y.mean()
    xpow = [None, dx, dx**2, dx**3]
    ypow = [None, dy, dy**2, dy**3]

    def eta(p, q):
        if q == 0:
            moment = np.sum(xpow[p])
        elif p == 0:
            moment = np.sum(ypow[q])
        else:
            moment = np.sum(xpow[p] * ypow[q])
        return float(moment) / n ** (1 + (p + q) / 2.0)

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


def ellipse_mask(shape, center, axes, angle=0.0):
    h, w = shape
    ys, xs = np.mgrid[0:h, 0:w]
    dx = xs - center[0]
    dy = ys - center[1]
    c, s = math.cos(angle), math.sin(angle)
    u = c * dx + s * dy
    v = -s * dx + c * dy
    return (u / axes[0]) ** 2 + (v / axes[1]) ** 2 <= 1.0


def sequence_key(seq_dir, corpus_digest):
    digest = corpus_digest.copy()
    for path in sorted(Path(seq_dir).iterdir()):
        if path.name.startswith("gt_"):
            continue
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def resolve_hand_over_hand(joint, template_left, template_right,
                           fallback_left, fallback_right):
    """The (x, y) centroids of both hands inside a merged blob, placed by
    their pre-occlusion shapes; an undersized joint gives the fallbacks."""
    jx, jy = joint.bbox[0], joint.bbox[1]
    results = []
    for template, fallback in ((template_left, fallback_left),
                               (template_right, fallback_right)):
        if template is None or joint.area < int(np.sum(template)):
            results.append((float(fallback[0]), float(fallback[1])))
            continue
        dy, dx = match_template(joint.mask, template)
        ys, xs = np.nonzero(template)
        cx = jx + dx + float(xs.mean())
        cy = jy + dy + float(ys.mean())
        results.append((cx, cy))
    return results[0], results[1]


def _placed_hand(template, centroid, shape, depth_frame):
    th, tw = template.shape
    h, w = shape
    ys, xs = np.nonzero(template)
    x0 = int(round(centroid[0] - xs.mean()))
    y0 = int(round(centroid[1] - ys.mean()))
    x0 = min(max(x0, 0), w - tw)
    y0 = min(max(y0, 0), h - th)
    blob = Blob(mask=template.copy(), bbox=(x0, y0, tw, th), area=int(template.sum()),
                centroid=(float(centroid[0]), float(centroid[1])),
                occlusion="hand_over_hand", shape_frozen=True)
    blob.depth = blob.median_depth(depth_frame)
    return blob


def _centroid_in_box(centroid, bbox):
    x, y, w, h = bbox
    return x <= centroid[0] <= x + w and y <= centroid[1] <= y + h


def reference_segment(general_model, cfg, seq):
    """The `FrameResult` of every frame of `seq`, from one loop, and the
    signer's skin model after the last frame."""
    span = dataio.shoulder_distance(seq)
    shape = seq.frame_shape
    signer_model = None
    face_model = None
    prev_gray = None
    templates = {"left": None, "right": None}
    tracks = {}
    frames = []

    for t in range(len(seq)):
        rgb = seq.color_frames[t]
        depth = np.asarray(seq.depth_frames[t], dtype=np.float64)
        pose = seq.skeleton[t]
        gray = to_gray(rgb)
        torso_z = pose.joints["torso"][2]
        body = body_region(depth, torso_z, cfg.body_depth_front, cfg.body_depth_back)
        frame_bins = rg_bins(rgb, cfg.hist_bins)
        if t == 0:
            boot = general_model.lookup(frame_bins, cfg.skin_threshold) & body
            if boot.any():
                signer_model = SkinHistogram.from_bins(
                    frame_bins[boot], frame_bins[body & ~boot], cfg.hist_bins)
            face_model = FaceDepthModel.from_frame(depth, _face_box(pose, span, shape))
            for hand in ("left", "right"):
                jx, jy, jz = pose.joints[f"hand_{hand}"]
                tracks[hand] = tracking.HandTrack.seed(
                    (jx, jy), box=(0.5 * span, 0.5 * span), depth=jz,
                    initial_cov=cfg.initial_covariance)
        model = signer_model if signer_model is not None else general_model
        skin_now = model.lookup(frame_bins, cfg.skin_threshold)
        if t == 0:
            cand = boot
        else:
            cand = skin_now & body & motion_mask(gray, prev_gray, cfg.motion_threshold)

        predicted = {h: tracking.predict(tracks[h], cfg.process_noise) for h in tracks}
        windows = {h: tracking.search_window(predicted[h], shape, cfg.window_pad_frac,
                                             cfg.window_pad_min)
                   for h in predicted}

        face_rect = (face_model.bbox[0], face_model.bbox[1],
                     face_model.bbox[0] + face_model.bbox[2],
                     face_model.bbox[1] + face_model.bbox[3])
        near_face = [h for h in windows if tracking.windows_intersect(windows[h], face_rect)]
        if near_face:
            fg = resolve_face_occlusion(depth, face_model, cfg.face_depth_threshold,
                                        cfg.face_update_rate)
            cand = cand | (fg & skin_now)
        else:
            face_model.update(depth, rate=cfg.face_update_rate)

        blobs = clean_mask(cand, min_area=cfg.min_blob_area)

        overlap = tracking.detect_overlap(windows["left"], windows["right"], blobs,
                                          cfg.min_blob_area)
        obs = {"left": None, "right": None}
        if overlap and templates["left"] is not None and templates["right"] is not None:
            joint = max(blobs, key=lambda b: b.area)
            lc, rc = resolve_hand_over_hand(joint, templates["left"], templates["right"],
                                            predicted["left"].position,
                                            predicted["right"].position)
            obs["left"] = _placed_hand(templates["left"], lc, shape, depth)
            obs["right"] = _placed_hand(templates["right"], rc, shape, depth)
        else:
            left_obs, right_obs = rank_and_assign(blobs, predicted["left"],
                                                  predicted["right"], depth, cfg,
                                                  allow_shared=overlap)
            obs = {"left": left_obs, "right": right_obs}
            for hand in ("left", "right"):
                o = obs[hand]
                if o is None:
                    continue
                if near_face and _centroid_in_box(o.centroid, face_model.bbox):
                    o.occlusion = "hand_over_face"
                else:
                    templates[hand] = o.mask.copy()

        for hand in ("left", "right"):
            track = predicted[hand]
            o = obs[hand]
            if o is not None and all(map(math.isfinite, o.centroid)):
                track = tracking.update(track, o.centroid, (o.bbox[2], o.bbox[3]),
                                        cfg.measurement_noise,
                                        depth=o.depth if math.isfinite(o.depth) else None)
            elif track.coast_count > cfg.max_coast:
                jx, jy, jz = pose.joints[f"hand_{hand}"]
                track = tracking.HandTrack.seed((jx, jy), box=tuple(track.box), depth=jz,
                                                initial_cov=cfg.initial_covariance)
            tracks[hand] = track

        if signer_model is not None and t >= 1:
            hands_mask = np.zeros(shape, dtype=bool)
            for o in obs.values():
                if o is not None:
                    x, y, w, h = o.bbox
                    hands_mask[y : y + h, x : x + w] |= o.mask
            if hands_mask.any():
                nonskin = body & ~hands_mask & ~cand
                signer_model = update_adaptive_model(
                    signer_model, frame_bins[hands_mask], frame_bins[nonskin],
                    cfg.skin_alpha)

        frames.append(FrameResult(left=obs["left"], right=obs["right"],
                                  left_track=tracks["left"], right_track=tracks["right"]))
        prev_gray = gray
    return frames, signer_model
