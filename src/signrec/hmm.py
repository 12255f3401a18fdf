"""Left-to-right HMMs with diagonal-Gaussian emissions, one per sign.

The chain has N emitting states plus non-emitting entry and exit states.
A state can only stay or move to the next one; the entry state feeds state 1
with probability 1 and only the last emitting state reaches the exit. A
model stores just that band, so no other transition can be represented.
Training is standard multi-sequence Baum-Welch restricted to that topology;
scoring is the log-domain forward algorithm (Rabiner 1989). Forward and
backward are one recursion whose every step is an O(N) two-predecessor
``logaddexp``, and the E-step runs all sequences of a class, in both
directions, as one padded batch.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import LoadError, load_record, save_record

log = logging.getLogger(__name__)

LOG_ZERO = -np.inf


@dataclass
class HmmModel:
    label: str
    means: np.ndarray         # (N, D)
    variances: np.ndarray     # (N, D), floored
    stay: np.ndarray          # (N,) self-transition probabilities
    leave: np.ndarray         # (N,) to the next state; leave[-1] is the exit

    @property
    def n_states(self):
        return self.means.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]


# the arrays of a model, and the members of a bank record (stacked over models)
_MEMBERS = ("means", "variances", "stay", "leave")


def init_model(samples, label="", n_states=7, self_prob=0.6, var_floor=1e-4) -> HmmModel:
    """Flat start: each sequence is cut into n_states equal segments and
    state k pools the k-th segments of all sequences."""
    if not samples:
        raise ValueError("need at least one training sample")
    samples = [np.asarray(s, dtype=np.float64) for s in samples]
    dim = samples[0].shape[1]
    pooled = [[] for _ in range(n_states)]
    for seq in samples:
        bounds = np.linspace(0, len(seq), n_states + 1).round().astype(int)
        for k in range(n_states):
            chunk = seq[bounds[k] : bounds[k + 1]]
            if len(chunk):
                pooled[k].append(chunk)
    everything = np.concatenate(samples)
    fallback_mean = everything.mean(axis=0)
    fallback_var = everything.var(axis=0)
    means = np.zeros((n_states, dim))
    variances = np.zeros((n_states, dim))
    for k in range(n_states):
        if pooled[k]:
            chunk = np.concatenate(pooled[k])
            means[k] = chunk.mean(axis=0)
            variances[k] = chunk.var(axis=0)
        else:
            means[k] = fallback_mean
            variances[k] = fallback_var
    variances = np.maximum(variances, var_floor)
    return HmmModel(
        label=label,
        means=means,
        variances=variances,
        stay=np.full(n_states, self_prob),
        leave=np.full(n_states, 1.0 - self_prob),
    )


def _bands(model: HmmModel):
    """Log transition probabilities of the band: stay (N,), advance (N-1,)
    to the next state and exit (from state N). Entry into state 1 has
    probability 1, log 0.0."""
    with np.errstate(divide="ignore"):
        stay = np.log(model.stay)
        leave = np.log(model.leave)
    return stay, leave[:-1], leave[-1]


def _emission_logs(model: HmmModel, frames, squares):
    """Log densities, shape (..., N), of frames (..., D) and their squares.

    The diagonal-Gaussian quadratic is expanded, sum((x - m)**2 / v) =
    x**2 @ (1/v) - 2 x @ (m/v) + sum(m**2 / v), so the densities of all
    frames and states are two matrix products plus a per-state constant.
    """
    precision = 1.0 / model.variances
    norm = -0.5 * np.sum(model.means**2 * precision
                         + np.log(2.0 * np.pi * model.variances), axis=1)
    logs = frames.reshape(-1, model.dim) @ (model.means * precision).T
    logs += squares.reshape(-1, model.dim) @ (-0.5 * precision).T
    logs += norm
    return logs.reshape(frames.shape[:-1] + (model.n_states,))


def _recursion(emit, stay, advance, start):
    """The band recursion over K independent columns (Rabiner 1989).

    emit (T, N, K) are emission logs, state-major so that every slice the
    loop touches is contiguous; stay (N, K) and advance (N - 1, K) are log
    transition probabilities and start (K,) is the log probability of state
    1 at step 0, all broadcastable. Returns `pre` (T, N, K), the logaddexp
    of the two predecessor paths into each state, and `post` (T, N + 1, K)
    = pre + emit behind a -inf sentinel row: logaddexp(x, -inf) == x
    exactly, so state 1 needs no special case. A step is one add for both
    paths, one logaddexp and one emission add.
    """
    steps, n, k = emit.shape
    weights = np.empty((2, n, k))     # from the state before, and from itself
    weights[0, 0] = 0.0               # the sentinel's
    weights[0, 1:] = advance
    weights[1] = stay
    pre = np.empty((steps, n, k))
    post = np.empty((steps, n + 1, k))
    post[:, 0] = LOG_ZERO
    pre[0] = LOG_ZERO
    pre[0, 0] = start
    np.add(pre[0], emit[0], out=post[0, 1:])
    # pairs[t] views post[t] twice: rows 0..N-1 (the state before) and
    # rows 1..N (the state itself)
    row, state, col = post.strides
    pairs = np.ndarray((steps, 2, n, k), buffer=post, strides=(row, state, state, col))
    paths = np.empty((2, n, k))
    before, own = paths
    for prev, reach, e, out in zip(pairs[:-1], pre[1:], emit[1:], post[1:, 1:]):
        np.add(prev, weights, out=paths)
        np.logaddexp(own, before, out=reach)
        np.add(reach, e, out=out)
    return pre, post


def _forward_backward(bands, emit, lengths):
    """Forward and backward log probabilities alpha and beta, C-contiguous
    (T, B, N), of a padded batch of emissions (T, B, N) with the given
    sequence lengths; beta is -inf past each end.

    On the band, backward is the forward recursion run over a sequence's
    emissions reversed in time and in state order, starting from the exit.
    Each reversed copy is left-aligned, so every sequence of both directions
    starts at step 0, and one `_recursion` over 2B columns computes both.
    """
    stay, advance, leave = bands
    steps, batch, n = emit.shape
    back = lengths - 1 - np.arange(steps)[:, None]   # (T, B); < 0 past the end
    cols = np.arange(batch)
    both = np.empty((steps, n, 2 * batch))
    both[..., :batch] = emit.transpose(0, 2, 1)
    both[..., batch:] = emit[back, cols, ::-1].transpose(0, 2, 1)
    forward = np.arange(2 * batch) < batch
    pre, post = _recursion(both, np.where(forward, stay[:, None], stay[::-1, None]),
                           np.where(forward, advance[:, None], advance[::-1, None]),
                           np.where(forward, 0.0, leave))
    alpha = np.ascontiguousarray(post[:, 1:, :batch].transpose(0, 2, 1))
    beta = np.where((back >= 0)[..., None], pre[back, ::-1, batch + cols], LOG_ZERO)
    return alpha, np.ascontiguousarray(beta)


def forward_loglik(model: HmmModel, frames) -> float:
    """Log-likelihood via the forward recursion in the log domain.

    The entry state pins the first frame to state 1; the sequence must end
    in the last emitting state, the only one that reaches the exit.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or len(frames) < 1:
        raise ValueError("need a (T, D) array with T >= 1")
    if frames.shape[1] != model.dim:
        raise ValueError(
            f"frame dimension {frames.shape[1]} does not match model {model.dim}"
        )
    stay, advance, leave = _bands(model)
    emit = _emission_logs(model, frames, frames * frames)
    _, post = _recursion(emit[..., None], stay[:, None], advance[:, None], 0.0)
    return float(post[-1, -1, 0] + leave)


def _pad(samples):
    """Sequences stacked time-major into (T_max, B, D), zero past each end,
    with their lengths and the squared frames (fixed for a whole fit)."""
    lengths = np.array([len(s) for s in samples])
    padded = np.zeros((lengths.max(), len(samples), samples[0].shape[1]))
    for b, frames in enumerate(samples):
        padded[: len(frames), b] = frames
    return padded, lengths, padded**2


def _expected_counts(model: HmmModel, padded, lengths, squares):
    """E-step over a padded batch: per-sequence log-likelihoods and the
    summed posterior counts (occupancy, first and second moments, self,
    advance and exit counts)."""
    bands = stay, advance, leave = _bands(model)
    emit = _emission_logs(model, padded, squares)
    alpha, beta = _forward_backward(bands, emit, lengths)
    batch = np.arange(len(lengths))
    loglik = alpha[lengths - 1, batch, -1] + leave
    if not np.all(np.isfinite(loglik)):
        raise FloatingPointError(
            f"sequence has zero probability under model {model.label!r}"
        )
    # beta is -inf past each end, so every posterior below is 0 there
    gamma = np.exp(alpha + beta - loglik[:, None])
    # xi over t = 0..T-2 touches only the band: stay in j or advance j -> j+1
    ahead = emit[1:] + beta[1:] - loglik[:, None]
    stays = np.exp(alpha[:-1] + stay + ahead)
    moves = np.exp(alpha[:-1, :, :-1] + advance + ahead[..., 1:])
    flat = gamma.reshape(-1, model.n_states).T
    return (loglik, gamma.sum(axis=(0, 1)), flat @ padded.reshape(-1, model.dim),
            flat @ squares.reshape(-1, model.dim),
            stays.sum(axis=(0, 1)), moves.sum(axis=(0, 1)),
            gamma[lengths - 1, batch, -1].sum())


def _reestimate(model: HmmModel, counts, var_floor):
    """M-step: a state with (numerically) no occupancy keeps its parameters,
    and one with no stay or leave counts keeps its stay and leave."""
    occupancy, mean_num, sq_num, stay_num, advance_num, exit_num = counts
    leave_num = np.append(advance_num, exit_num)
    row_sum = stay_num + leave_num
    occupied = occupancy > 1e-12
    moved = occupied & (row_sum > 0)
    # the rows that np.where discards may divide by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        means = mean_num / occupancy[:, None]
        variances = np.maximum(sq_num / occupancy[:, None] - means**2, var_floor)
        stay = stay_num / row_sum
        leave = leave_num / row_sum
    return HmmModel(label=model.label,
                    means=np.where(occupied[:, None], means, model.means),
                    variances=np.where(occupied[:, None], variances, model.variances),
                    stay=np.where(moved, stay, model.stay),
                    leave=np.where(moved, leave, model.leave))


def baum_welch(model: HmmModel, samples, max_iter=40, tol=1e-4, var_floor=1e-4):
    """Multi-sequence EM within the no-skip topology.

    All sequences share one padded E-step per iteration.  A stay or leave
    probability that starts at zero stays zero; variances are floored every
    iteration; a state with (numerically) no occupancy keeps its previous
    parameters. Returns (model, per-iteration total log-likelihoods).
    """
    samples = [np.asarray(s, dtype=np.float64) for s in samples]
    if not samples:
        raise ValueError("need at least one training sample")
    batch = _pad(samples)
    history = []
    previous = None
    for _ in range(max_iter):
        loglik, *counts = _expected_counts(model, *batch)
        total = float(sum(loglik))
        history.append(total)
        model = _reestimate(model, counts, var_floor)
        if previous is not None and abs(total - previous) < tol:
            break
        previous = total
    return model, history


@dataclass
class ClassifierBank:
    models: dict[str, HmmModel]
    vocabulary: list[str]
    feature_spec: str = ""

    def classify(self, frames):
        """Maximum-likelihood label and the per-class score vector.

        Ties resolve to the earlier vocabulary entry.  The label is None
        when no model can score the frames (every score -inf, as for a
        sequence shorter than the chains).
        """
        scores = np.array(
            [forward_loglik(self.models[label], frames) for label in self.vocabulary]
        )
        if not np.isfinite(scores).any():
            return None, scores
        return self.vocabulary[int(np.argmax(scores))], scores

    def save(self, directory):
        """Write the bank as one record, ``models.npz``, inside `directory`:
        the members of `_MEMBERS`, each stacked over the vocabulary."""
        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        models = [self.models[label] for label in self.vocabulary]
        save_record(out / "models.npz",
                    {"vocabulary": self.vocabulary, "feature_spec": self.feature_spec},
                    **{name: np.stack([getattr(m, name) for m in models])
                       for name in _MEMBERS})

    @classmethod
    def load(cls, directory):
        """Read a bank written by `save`; a record with other members,
        metadata or shapes raises LoadError naming the file."""
        path = Path(directory) / "models.npz"
        meta, arrays = load_record(path, _MEMBERS, {"vocabulary": list, "feature_spec": str})
        vocabulary = meta["vocabulary"]
        if not all(type(label) is str for label in vocabulary):
            raise LoadError(f"{path}: vocabulary {vocabulary!r} is not a list of strings")
        shapes = [arrays[name].shape for name in _MEMBERS]
        full = shapes[0]
        if len(full) != 3 or full[0] != len(vocabulary) or shapes[1:] != [
                full, full[:2], full[:2]]:
            raise LoadError(f"{path}: member shapes {shapes} are not (C, N, D), "
                            f"(C, N, D), (C, N), (C, N) for C = {len(vocabulary)} models")
        models = {label: HmmModel(label, **{name: a[i] for name, a in arrays.items()})
                  for i, label in enumerate(vocabulary)}
        return cls(models, vocabulary, meta["feature_spec"])


def train_bank(samples_by_class, n_states=7, self_prob=0.6, max_iter=40,
               tol=1e-4, var_floor=1e-4, feature_spec="") -> ClassifierBank:
    """One model per class.  A sequence shorter than the chain has no path
    through it, so it is left out of training (and logged)."""
    vocabulary = sorted(samples_by_class)
    models = {}
    for label in vocabulary:
        samples = [s for s in samples_by_class[label] if len(s) >= n_states]
        if len(samples) < len(samples_by_class[label]):
            log.warning("class %s: %d sequences shorter than %d states left out",
                        label, len(samples_by_class[label]) - len(samples), n_states)
        model = init_model(
            samples,
            label=label,
            n_states=n_states,
            self_prob=self_prob,
            var_floor=var_floor,
        )
        model, _ = baum_welch(
            model, samples, max_iter=max_iter, tol=tol, var_floor=var_floor,
        )
        models[label] = model
    return ClassifierBank(models=models, vocabulary=vocabulary,
                          feature_spec=feature_spec)

