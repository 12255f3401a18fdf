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
# the floor on every emission variance, at the flat start and after each M-step
VAR_FLOOR = 1e-4


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


# the arrays of a model and the members of a bank record (stacked over models),
# each with the values a fit gives it: (test of one model's array, what it asks)
_MEMBERS = {
    "means": (np.isfinite, "finite"),
    "variances": (lambda a: (a > 0) & (a < np.inf), "finite and above 0"),
    "stay": (lambda a: (a >= 0) & (a <= 1), "in [0, 1]"),
    "leave": (lambda a: (a >= 0) & (a <= 1), "in [0, 1]"),
}


def init_model(samples, label="", n_states=7, self_prob=0.6, var_floor=VAR_FLOOR) -> HmmModel:
    """Flat start: each sequence is cut into n_states equal segments and
    state k pools the k-th segments of all sequences. A sequence shorter
    than the chain raises ValueError; any other gives every segment a frame."""
    if not samples:
        raise ValueError("need at least one training sample")
    samples = [np.asarray(s, dtype=np.float64) for s in samples]
    lengths = [len(s) for s in samples]
    if min(lengths) < n_states:
        raise ValueError(f"a sequence of {min(lengths)} frames is shorter than "
                         f"the {n_states} states of the chain")
    cuts = np.linspace(0, lengths, n_states + 1, axis=1).round().astype(int)
    # state-major, so that each state's frames are one contiguous block
    pooled = np.concatenate([s[c[k]:c[k + 1]] for k in range(n_states)
                             for s, c in zip(samples, cuts)])
    sizes = np.diff(cuts).sum(axis=0)
    means, variances = [], []
    for stop, n in zip(np.cumsum(sizes), sizes):
        chunk = pooled[stop - n:stop]
        # the arithmetic of ndarray.mean and .var, without their wrappers
        mean = np.add.reduce(chunk, axis=0, keepdims=True) / n
        means.append(mean[0])
        variances.append(np.add.reduce(np.square(chunk - mean), axis=0) / n)
    return HmmModel(
        label=label,
        means=np.array(means),
        variances=np.maximum(variances, var_floor),
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
    """M-step: the ratios of expected counts. Every path visits every state,
    so in a batch the E-step can score each state's occupancy is at least the
    batch size, and equals its stay plus leave counts: no ratio divides by 0."""
    occupancy, mean_num, sq_num, stay_num, advance_num, exit_num = counts
    leave_num = np.append(advance_num, exit_num)
    row_sum = stay_num + leave_num
    means = mean_num / occupancy[:, None]
    return HmmModel(label=model.label, means=means,
                    variances=np.maximum(sq_num / occupancy[:, None] - means**2, var_floor),
                    stay=stay_num / row_sum, leave=leave_num / row_sum)


def baum_welch(model: HmmModel, samples, max_iter=40, tol=1e-4, var_floor=VAR_FLOOR):
    """Multi-sequence EM within the no-skip topology.

    All sequences share one padded E-step per iteration.  A stay or leave
    probability that starts at zero stays zero; variances are floored every
    iteration. A sequence the model cannot score (one shorter than the
    chain) raises FloatingPointError. Returns (model, per-iteration total
    log-likelihoods).
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
    """One model per sign, in vocabulary order; each model's label names its sign."""
    models: list[HmmModel]
    feature_spec: str = ""

    @property
    def vocabulary(self):
        return [m.label for m in self.models]

    def classify(self, frames):
        """Maximum-likelihood label and the per-class score vector.

        Ties resolve to the earlier model.  The label is None when no model
        can score the frames (every score -inf, as for a sequence shorter
        than the chains).
        """
        scores = np.array([forward_loglik(m, frames) for m in self.models])
        if not np.isfinite(scores).any():
            return None, scores
        return self.models[int(np.argmax(scores))].label, scores

    def save(self, directory):
        """Write the bank as one record, ``models.npz``, inside `directory`:
        the members of `_MEMBERS`, each stacked over the models."""
        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        save_record(out / "models.npz",
                    {"vocabulary": self.vocabulary, "feature_spec": self.feature_spec},
                    **{name: np.stack([getattr(m, name) for m in self.models])
                       for name in _MEMBERS})

    @classmethod
    def load(cls, directory):
        """Read a bank written by `save`; a record with other members,
        metadata or shapes, a repeated label, or a member value no fit gives
        (see `_MEMBERS`) raises LoadError naming the file."""
        path = Path(directory) / "models.npz"
        meta, arrays = load_record(path, _MEMBERS, {"vocabulary": list, "feature_spec": str})
        vocabulary = meta["vocabulary"]
        if not all(type(label) is str for label in vocabulary):
            raise LoadError(f"{path}: vocabulary {vocabulary!r} is not a list of strings")
        if len(set(vocabulary)) < len(vocabulary):
            raise LoadError(f"{path}: vocabulary {vocabulary!r} repeats a label")
        shapes = [arrays[name].shape for name in _MEMBERS]
        full = shapes[0]
        if len(full) != 3 or full[0] != len(vocabulary) or shapes[1:] != [
                full, full[:2], full[:2]]:
            raise LoadError(f"{path}: member shapes {shapes} are not (C, N, D), "
                            f"(C, N, D), (C, N), (C, N) for C = {len(vocabulary)} models")
        for name, (valid, what) in _MEMBERS.items():
            for label, values in zip(vocabulary, arrays[name]):
                if not valid(values).all():
                    raise LoadError(f"{path}: {name} of model {label!r} are not all {what}")
        return cls([HmmModel(label, **{name: a[i] for name, a in arrays.items()})
                    for i, label in enumerate(vocabulary)], meta["feature_spec"])


def trainable(samples_by_class, n_states):
    """Per class, in label order, the sequences at least `n_states` long. A
    shorter one has no path through the chain, so it is left out (and
    logged); a class left with none raises ValueError naming it."""
    kept = {}
    for label in sorted(samples_by_class):
        samples = samples_by_class[label]
        kept[label] = [s for s in samples if len(s) >= n_states]
        if not kept[label]:
            raise ValueError(f"class {label!r}: every sequence is shorter than "
                             f"hmm_states={n_states}")
        if len(kept[label]) < len(samples):
            log.warning("class %s: %d sequences shorter than %d states left out",
                        label, len(samples) - len(kept[label]), n_states)
    return kept


def train_bank(samples_by_class, cfg) -> ClassifierBank:
    """One model per class, in label order, of `cfg.hmm_states` states and
    fitted for at most `cfg.hmm_max_iter` EM iterations, from the `trainable`
    sequences of each; the bank names no feature set."""
    models = []
    for label, samples in trainable(samples_by_class, cfg.hmm_states).items():
        model = init_model(samples, label=label, n_states=cfg.hmm_states)
        model, _ = baum_welch(model, samples, max_iter=cfg.hmm_max_iter)
        models.append(model)
    return ClassifierBank(models)
