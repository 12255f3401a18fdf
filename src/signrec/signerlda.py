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
from itertools import accumulate

import numpy as np
import scipy.linalg

from .dataio import LoadError, load_record, save_record


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
    local = np.einsum("ijk,ijk->ij", diff, diff).tolist()

    # The recursion runs on Python floats (the same IEEE doubles, without
    # numpy's per-element boxing). moves[i][j]: 0 diag, 1 up (ref), 2 left
    # (query); the diagonal wins ties, up and left only on strict <.
    prev = list(accumulate(local[0]))
    moves = [[2] * m]
    for cost in local[1:]:
        left = prev[0] + cost[0]
        row = [left]
        move_row = [1]
        for diag, up, here in zip(prev, prev[1:], cost[1:]):
            best, move = diag, 0
            if up < best:
                best, move = up, 1
            if left < best:
                best, move = left, 2
            left = best + here
            row.append(left)
            move_row.append(move)
        prev = row
        moves.append(move_row)

    path = []
    i, j = n - 1, m - 1
    while True:
        path.append((i, j))
        if i == 0 and j == 0:
            break
        move = moves[i][j]
        if move == 0:
            i, j = i - 1, j - 1
        elif move == 1:
            i -= 1
        else:
            j -= 1
    path.reverse()
    return path, prev[-1]


def warp_to_reference(ref_xy, query_xy, query_full):
    """Warp a sample onto the reference timeline.

    Alignment runs on the position features only; the full frame vectors
    follow the warp. Query frames sharing one reference slot are averaged,
    each slot summed in path order.
    """
    path, _ = dtw_align(ref_xy, query_xy)
    n = len(ref_xy)
    rows, cols = np.array(path).T
    out = np.zeros((n, query_full.shape[1]))
    np.add.at(out, rows, query_full[cols])
    return out / np.bincount(rows, minlength=n)[:, None]


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


def align_and_resample(samples_xy, samples_full, keep_frames):
    """Align all samples of one sign to a common middle-third timeline;
    returns the (N, keep_frames, D) stack.

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
    return np.stack(aligned)


def accumulate_scatter(aligned):
    """Between-sign and within-sign scatter, (between, within), from the
    per-frame means of one (N_c, T, D) stack per sign.

    The global mean weighs classes by sample count. The between matrix sums
    unweighted outer products of class-mean offsets; the within matrix sums
    sample deviations from their class mean, weighted by the class share of
    the corpus.
    """
    if not aligned:
        raise ValueError("no classes given")
    t_len, dim = aligned[0].shape[1:]
    for frames in aligned:
        if frames.shape[1:] != (t_len, dim):
            raise ValueError("aligned sets disagree on (T, D)")

    counts = np.array([len(frames) for frames in aligned], dtype=np.float64)
    total = counts.sum()
    class_means = np.stack([frames.mean(axis=0) for frames in aligned])  # (C, T, D)
    global_means = np.einsum("c,ctd->td", counts / total, class_means)

    offsets = class_means - global_means[None]                 # (C, T, D)
    between = np.einsum("ctd,cte->de", offsets, offsets)

    within = np.zeros((dim, dim))
    for frames, n_c in zip(aligned, counts):
        dev = frames - frames.mean(axis=0)[None]               # (N, T, D)
        within += (n_c / total) * np.einsum("ntd,nte->de", dev, dev)
    return between, within


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

    def save(self, path):
        meta = {"keep_frames": self.keep_frames, "shrinkage": float(self.shrinkage),
                "feature_spec": self.feature_spec}
        save_record(path, meta, weights=self.weights, eigenvalues=self.eigenvalues)

    @classmethod
    def load(cls, path):
        """Read a transform written by `save`; a record with other members,
        metadata or shapes raises LoadError naming the file."""
        meta, arrays = load_record(path, ("weights", "eigenvalues"),
                                   {"keep_frames": int, "shrinkage": float, "feature_spec": str})
        weights, eigenvalues = arrays["weights"], arrays["eigenvalues"]
        if weights.ndim != 2 or eigenvalues.shape != weights.shape[1:]:
            raise LoadError(f"{path}: member shapes {weights.shape}, {eigenvalues.shape} "
                            f"are not (D, M), (M,)")
        return cls(weights, eigenvalues, meta["keep_frames"], meta["shrinkage"],
                   meta["feature_spec"])


def solve_transform(between, within, out_dim, shrinkage=1e-3, shrinkage_max=10.0):
    """Top generalized eigenvectors of (between, within + ridge); returns
    (weights, eigenvalues, shrinkage used).

    The within matrix is regularized by shrinkage * mean diagonal; if the
    solver still fails the ridge grows tenfold up to shrinkage_max.
    """
    dim = between.shape[0]
    if out_dim > dim:
        raise ValueError(f"cannot keep {out_dim} of {dim} dimensions")
    ridge_unit = np.trace(within) / dim
    if ridge_unit <= 0:
        ridge_unit = 1.0
    gamma = shrinkage
    while True:
        regularized = within + gamma * ridge_unit * np.eye(dim)
        try:
            eigvals, eigvecs = scipy.linalg.eigh(between, regularized)
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
    return vectors, values, gamma


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
    aligned = [align_and_resample(posxy_by_class[label], samples_by_class[label],
                                  keep_frames)
               for label in sorted(samples_by_class)]
    weights, eigenvalues, used = solve_transform(*accumulate_scatter(aligned), out_dim,
                                                 shrinkage, shrinkage_max)
    return LdaTransform(weights, eigenvalues, keep_frames, used, feature_spec)
