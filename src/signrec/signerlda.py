"""Signer-independent linear feature transform.

Samples of each sign are aligned frame-to-frame with dynamic time warping
on the hand positions, resampled to a common length and trimmed to the
middle third, where the sign-specific motion lives. Per-frame class and
global means feed between-sign and within-sign scatter matrices whose
generalized eigenvectors define the projection; directions that vary
between signs but not between performers score the highest eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dataio import load_record, save_record


def dtw_align(ref, query):
    """Classic DTW with steps {(1,0),(0,1),(1,1)} and pinned endpoints.

    Local cost is the squared Euclidean distance between frames. Returns
    (path, cost) where path is a list of (ref_index, query_index) pairs,
    monotone in both indices; ties between steps prefer the diagonal.
    """
    ref = np.asarray(ref, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    if ref.ndim == 1:
        ref = ref[:, None]
    if query.ndim == 1:
        query = query[:, None]
    n, m = len(ref), len(query)
    if n == 0 or m == 0:
        raise ValueError("cannot align empty sequences")

    diff = ref[:, None, :] - query[None, :, :]
    local = np.einsum("ijk,ijk->ij", diff, diff)

    acc = np.full((n, m), np.inf)
    step = np.zeros((n, m), dtype=np.uint8)  # 0 diag, 1 up (ref), 2 left (query)
    acc[0, 0] = local[0, 0]
    for i in range(1, n):
        acc[i, 0] = acc[i - 1, 0] + local[i, 0]
        step[i, 0] = 1
    for j in range(1, m):
        acc[0, j] = acc[0, j - 1] + local[0, j]
        step[0, j] = 2
    for i in range(1, n):
        row = acc[i - 1]
        for j in range(1, m):
            best = row[j - 1]  # diagonal wins ties
            move = 0
            if row[j] < best:
                best = row[j]
                move = 1
            if acc[i, j - 1] < best:
                best = acc[i, j - 1]
                move = 2
            acc[i, j] = best + local[i, j]
            step[i, j] = move

    path = []
    i, j = n - 1, m - 1
    while True:
        path.append((i, j))
        if i == 0 and j == 0:
            break
        move = step[i, j]
        if move == 0:
            i, j = i - 1, j - 1
        elif move == 1:
            i -= 1
        else:
            j -= 1
    path.reverse()
    return path, float(acc[n - 1, m - 1])


def warp_to_reference(ref_xy, query_xy, query_full):
    """Warp a sample onto the reference timeline.

    Alignment runs on the position features only; the full frame vectors
    follow the warp. Query frames sharing one reference slot are averaged.
    """
    path, _ = dtw_align(ref_xy, query_xy)
    n = len(ref_xy)
    out = np.zeros((n, query_full.shape[1]))
    counts = np.zeros(n)
    for i, j in path:
        out[i] += query_full[j]
        counts[i] += 1
    return out / counts[:, None]


def resample_linear(frames, length):
    frames = np.asarray(frames, dtype=np.float64)
    n = len(frames)
    if n == 1:
        return np.repeat(frames, length, axis=0)
    pos = np.linspace(0.0, n - 1, length)
    lo = np.floor(pos).astype(np.intp)
    hi = np.minimum(lo + 1, n - 1)
    w = (pos - lo)[:, None]
    return frames[lo] * (1 - w) + frames[hi] * w


@dataclass
class AlignedClassSet:
    label: str
    frames: np.ndarray        # (N, T, D) aligned, resampled, middle third
    reference_index: int


def align_and_resample(samples_xy, samples_full, label, keep_frames) -> AlignedClassSet:
    """Align all samples of one sign to a common middle-third timeline.

    The reference is the sample of median length. After warping, each sample
    is linearly resampled to 3 * keep_frames and the first and last thirds
    are discarded: starts and ends of signs look alike, the middle carries
    the sign-specific content.
    """
    if not samples_full:
        raise ValueError("need at least one sample")
    for xy in samples_xy:
        if len(xy) < 3:
            raise ValueError("samples must have at least 3 frames")
    lengths = sorted(range(len(samples_full)), key=lambda i: (len(samples_full[i]), i))
    ref_idx = lengths[(len(lengths) - 1) // 2]
    ref_xy = samples_xy[ref_idx]

    total = 3 * keep_frames
    aligned = []
    for xy, full in zip(samples_xy, samples_full):
        warped = warp_to_reference(ref_xy, xy, np.asarray(full, dtype=np.float64))
        resampled = resample_linear(warped, total)
        aligned.append(resampled[keep_frames : 2 * keep_frames])
    return AlignedClassSet(
        label=label,
        frames=np.stack(aligned),
        reference_index=ref_idx,
    )


@dataclass
class ScatterAccumulator:
    class_means: np.ndarray    # (C, T, D)
    global_means: np.ndarray   # (T, D)
    between: np.ndarray        # (D, D)
    within: np.ndarray         # (D, D)
    class_counts: np.ndarray   # (C,)


def accumulate_scatter(aligned_sets) -> ScatterAccumulator:
    """Between-sign and within-sign scatter from per-frame means.

    The global mean weighs classes by sample count. The between matrix sums
    unweighted outer products of class-mean offsets; the within matrix sums
    sample deviations from their class mean, weighted by the class share of
    the corpus.
    """
    if not aligned_sets:
        raise ValueError("no classes given")
    t_len = aligned_sets[0].frames.shape[1]
    dim = aligned_sets[0].frames.shape[2]
    for s in aligned_sets:
        if s.frames.shape[1] != t_len or s.frames.shape[2] != dim:
            raise ValueError("aligned sets disagree on (T, D)")

    counts = np.array([len(s.frames) for s in aligned_sets], dtype=np.float64)
    total = counts.sum()
    class_means = np.stack([s.frames.mean(axis=0) for s in aligned_sets])  # (C, T, D)
    global_means = np.einsum("c,ctd->td", counts / total, class_means)

    offsets = class_means - global_means[None]                 # (C, T, D)
    between = np.einsum("ctd,cte->de", offsets, offsets)

    within = np.zeros((dim, dim))
    for s, n_c in zip(aligned_sets, counts):
        dev = s.frames - s.frames.mean(axis=0)[None]           # (N, T, D)
        within += (n_c / total) * np.einsum("ntd,nte->de", dev, dev)
    return ScatterAccumulator(
        class_means=class_means,
        global_means=global_means,
        between=between,
        within=within,
        class_counts=counts,
    )


@dataclass
class LdaTransform:
    weights: np.ndarray       # (D, M) eigenvector columns, descending eigenvalue
    eigenvalues: np.ndarray   # (M,)
    keep_frames: int
    shrinkage: float
    feature_spec: str = ""

    @property
    def dim(self):
        return self.weights.shape[0]

    @property
    def out_dim(self):
        return self.weights.shape[1]

    def save(self, path):
        meta = {"keep_frames": self.keep_frames, "shrinkage": self.shrinkage,
                "feature_spec": self.feature_spec}
        save_record(path, meta, weights=self.weights, eigenvalues=self.eigenvalues)

    @classmethod
    def load(cls, path):
        meta, arrays = load_record(path)
        return cls(**arrays, **meta)


def solve_transform(acc: ScatterAccumulator, out_dim, shrinkage=1e-3,
                    shrinkage_max=10.0) -> LdaTransform:
    """Top generalized eigenvectors of (between, within + ridge).

    The within matrix is regularized by shrinkage * mean diagonal; if the
    solver still fails the ridge grows tenfold up to shrinkage_max.
    """
    dim = acc.between.shape[0]
    if out_dim > dim:
        raise ValueError(f"cannot keep {out_dim} of {dim} dimensions")
    ridge_unit = np.trace(acc.within) / dim
    if ridge_unit <= 0:
        ridge_unit = 1.0
    gamma = shrinkage
    while True:
        regularized = acc.within + gamma * ridge_unit * np.eye(dim)
        try:
            eigvals, eigvecs = scipy.linalg.eigh(acc.between, regularized)
            break
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
            gamma *= 10.0
            if gamma > shrinkage_max:
                raise ValueError(
                    "within-sign scatter is singular even at maximum shrinkage"
                ) from None
    order = np.argsort(eigvals)[::-1][:out_dim]
    values = eigvals[order]
    vectors = eigvecs[:, order].copy()
    for k in range(vectors.shape[1]):
        pivot = int(np.argmax(np.abs(vectors[:, k])))
        if vectors[pivot, k] < 0:
            vectors[:, k] = -vectors[:, k]
    return LdaTransform(
        weights=vectors,
        eigenvalues=values,
        keep_frames=0,
        shrinkage=gamma,
    )


def project(frames, transform: LdaTransform):
    """Project per-frame feature vectors onto the learned basis."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape[1] != transform.dim:
        raise ValueError(
            f"frame dimension {frames.shape[1]} does not match transform {transform.dim}"
        )
    return frames @ transform.weights


def fit_transform(samples_by_class, posxy_by_class, out_dim, keep_frames,
                  shrinkage=1e-3, shrinkage_max=10.0, feature_spec="") -> LdaTransform:
    """Fit the transform from per-class lists of (frames, posxy) arrays."""
    aligned = []
    for label in sorted(samples_by_class):
        aligned.append(
            align_and_resample(
                posxy_by_class[label], samples_by_class[label], label, keep_frames
            )
        )
    acc = accumulate_scatter(aligned)
    transform = solve_transform(acc, out_dim, shrinkage, shrinkage_max)
    transform.keep_frames = keep_frames
    transform.feature_spec = feature_spec
    return transform
