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

from .dataio import LoadError, load_record, save_record

# frames of the middle third each aligned sample keeps
KEEP_FRAMES = 15


def dtw_align(ref, query):
    """Classic DTW with steps {(1,0),(0,1),(1,1)} and pinned endpoints
    between (n, D) and (m, D) frame arrays.

    Local cost is the squared Euclidean distance between frames. Returns
    (path, cost) where path is a list of (ref_index, query_index) pairs,
    monotone in both indices; ties between steps prefer the diagonal.
    """
    ref = np.asarray(ref, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
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
    the sign-specific content. Any non-empty sample aligns, even a 1-frame one.
    """
    if not samples_full:
        raise ValueError("need at least one sample")
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
        metadata or shapes, or a weight or eigenvalue that is not finite,
        raises LoadError naming the file."""
        meta, arrays = load_record(path, ("weights", "eigenvalues"),
                                   {"keep_frames": int, "shrinkage": float, "feature_spec": str})
        weights, eigenvalues = arrays["weights"], arrays["eigenvalues"]
        if weights.ndim != 2 or eigenvalues.shape != weights.shape[1:]:
            raise LoadError(f"{path}: member shapes {weights.shape}, {eigenvalues.shape} "
                            f"are not (D, M), (M,)")
        for name in ("weights", "eigenvalues"):
            if not np.isfinite(arrays[name]).all():
                raise LoadError(f"{path}: {name} are not all finite")
        return cls(weights, eigenvalues, meta["keep_frames"], meta["shrinkage"],
                   meta["feature_spec"])


def solve_transform(between, within, out_dim, shrinkage=1e-3):
    """Top generalized eigenvectors of (between, within + ridge); returns
    (weights, eigenvalues).

    The ridge is shrinkage * mean within diagonal, or shrinkage alone when
    that diagonal is all zero. If within + ridge is not positive definite
    (for a sum of Gram matrices, only at a ridge of zero or below rounding),
    it raises ValueError naming the shrinkage. A scatter holding an inf or
    NaN raises ValueError naming it before the ridge is added.

    The symmetric-definite problem is reduced to a standard one by Cholesky
    (Golub & Van Loan, Matrix Computations, sec. 8.7), as LAPACK's dsygvd
    does: with L L^T = within + ridge, the eigenvectors u of the symmetrized
    L^-1 between L^-T give v = L^-T u, normalized to v^T (within + ridge) v = 1.
    """
    dim = between.shape[0]
    if out_dim > dim:
        raise ValueError(f"cannot keep {out_dim} of {dim} dimensions")
    for name, matrix in (("between", between), ("within", within)):
        if not np.isfinite(matrix).all():
            raise ValueError(f"{name}-sign scatter is not finite: it holds an inf or NaN")
    ridge_unit = np.trace(within) / dim
    if ridge_unit <= 0:
        ridge_unit = 1.0
    try:
        chol = np.linalg.cholesky(within + shrinkage * ridge_unit * np.eye(dim))
    except np.linalg.LinAlgError:
        raise ValueError(f"within-sign scatter is singular at lda_shrinkage={shrinkage!r}; "
                         f"set a larger one") from None
    inv = np.linalg.inv(chol)
    whitened = inv @ between @ inv.T
    eigvals, eigvecs = np.linalg.eigh((whitened + whitened.T) / 2)
    order = np.argsort(eigvals)[::-1][:out_dim]
    values = eigvals[order]
    vectors = inv.T @ eigvecs[:, order]
    for k in range(vectors.shape[1]):
        pivot = int(np.argmax(np.abs(vectors[:, k])))
        if vectors[pivot, k] < 0:
            vectors[:, k] = -vectors[:, k]
    return vectors, values


def project(frames, transform: LdaTransform):
    """Project per-frame feature vectors onto the learned basis."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape[1] != transform.dim:
        raise ValueError(
            f"frame dimension {frames.shape[1]} does not match transform {transform.dim}"
        )
    return frames @ transform.weights


def fit_transform(frames_by_class, posxy_by_class, out_dim, cfg) -> LdaTransform:
    """Fit the transform from per-class lists of (frames, posxy) arrays, each
    sample aligned to KEEP_FRAMES frames, with `cfg.lda_shrinkage` as the
    ridge; the transform records both and names no feature set (the caller
    that saves it does)."""
    aligned = [align_and_resample(posxy_by_class[label], frames_by_class[label], KEEP_FRAMES)
               for label in sorted(frames_by_class)]
    weights, eigenvalues = solve_transform(*accumulate_scatter(aligned), out_dim,
                                           cfg.lda_shrinkage)
    return LdaTransform(weights, eigenvalues, KEEP_FRAMES, cfg.lda_shrinkage)
