"""Left-to-right HMMs with diagonal-Gaussian emissions, one per sign.

The chain has N emitting states plus non-emitting entry and exit states.
A state can only stay or move to the next one; the entry state feeds state 1
with probability 1 and only the last emitting state reaches the exit. A
model stores just that band, so no other transition can be represented.
Training is standard multi-sequence Baum-Welch restricted to that topology;
scoring is the log-domain forward algorithm (Rabiner 1989). Every recursion
step is an O(N) two-predecessor ``logaddexp``, and the E-step runs all
sequences of a class as one padded batch.
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
    to the next state, enter (into state 1, always 0.0) and exit (from
    state N)."""
    with np.errstate(divide="ignore"):
        stay = np.log(model.stay)
        leave = np.log(model.leave)
    return stay, leave[:-1], 0.0, leave[-1]


def _emission_logs(model: HmmModel, frames):
    """Log densities, shape (..., N) for frames of shape (..., D)."""
    quad = frames[..., None, :] - model.means   # (..., N, D), reused in place
    quad *= quad
    quad /= model.variances
    norm = np.sum(np.log(2.0 * np.pi * model.variances), axis=1)  # (N,)
    return -0.5 * (quad.sum(axis=-1) + norm)


def _forward(bands, emit):
    """Forward log probabilities alpha (T, B, N) of emissions (T, B, N).

    Each step has two predecessors per state: itself and the state before.
    The recursion runs state-major, (T, N + 1, B), so that every slice it
    touches is contiguous, with a -inf sentinel row before state 1: since
    logaddexp(x, -inf) == x exactly, each step is one logaddexp into the
    output row plus the emission.
    """
    stay, advance, enter, _ = bands
    steps, batch, n = emit.shape
    emit = np.ascontiguousarray(emit.transpose(0, 2, 1))
    alpha = np.empty((steps, n + 1, batch))
    alpha[:, 0] = LOG_ZERO                          # the sentinel row
    alpha[0, 1:] = LOG_ZERO
    alpha[0, 1] = enter + emit[0, 0]
    stay = stay[:, None]
    into = np.append(0.0, advance)[:, None]         # from the row before
    for t in range(1, steps):
        prev = alpha[t - 1]
        row = alpha[t, 1:]
        np.logaddexp(prev[1:] + stay, prev[:-1] + into, out=row)
        row += emit[t]
    return np.ascontiguousarray(alpha[:, 1:].transpose(0, 2, 1))


def _backward(bands, emit, lengths):
    """Backward log probabilities beta (T, B, N); sequence b ends at
    lengths[b] - 1, and beta past that end is left unspecified.

    Like `_forward` it runs state-major; ahead[t] = emit[t] + beta[t] has a
    -inf sentinel row after the last state, which has no successor.
    """
    stay, advance, _, leave = bands
    steps, batch, n = emit.shape
    emit = np.ascontiguousarray(emit.transpose(0, 2, 1))
    beta = np.empty((steps, n, batch))
    ahead = np.empty((steps, n + 1, batch))
    ahead[:, -1] = LOG_ZERO                         # the sentinel row
    last = np.full((n, 1), LOG_ZERO)
    last[-1] = leave
    beta[-1] = last
    stay = stay[:, None]
    onto = np.append(advance, 0.0)[:, None]         # to the row after
    ends = {}
    for b, length in enumerate(lengths.tolist()):
        ends.setdefault(length - 1, []).append(b)
    for t in range(steps - 2, -1, -1):
        nxt = ahead[t + 1]
        np.add(emit[t + 1], beta[t + 1], out=nxt[:-1])
        np.logaddexp(nxt[:-1] + stay, nxt[1:] + onto, out=beta[t])
        if t in ends:
            beta[t][:, ends[t]] = last
    return np.ascontiguousarray(beta.transpose(0, 2, 1))


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
    bands = _bands(model)
    alpha = _forward(bands, _emission_logs(model, frames[:, None, :]))
    return float(alpha[-1, 0, -1] + bands[3])


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
    bands = stay, advance, _, leave = _bands(model)
    emit = _emission_logs(model, padded)
    alpha = _forward(bands, emit)
    beta = _backward(bands, emit, lengths)
    batch = np.arange(len(lengths))
    loglik = alpha[lengths - 1, batch, -1] + leave
    if not np.all(np.isfinite(loglik)):
        raise FloatingPointError(
            f"sequence has zero probability under model {model.label!r}"
        )
    valid = (np.arange(len(padded))[:, None] < lengths)[..., None]   # (T, B, 1)
    gamma = np.exp(np.where(valid, alpha + beta - loglik[:, None], LOG_ZERO))
    # xi over t = 0..T-2 touches only the band: stay in j or advance j -> j+1
    ahead = emit[1:] + beta[1:] - loglik[:, None]
    stays = np.exp(np.where(valid[1:], alpha[:-1] + stay + ahead, LOG_ZERO))
    moves = np.exp(np.where(valid[1:], alpha[:-1, :, :-1] + advance + ahead[..., 1:],
                            LOG_ZERO))
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
        """Read a bank written by `save`; a record with other members or
        shapes raises LoadError naming the file."""
        path = Path(directory) / "models.npz"
        meta, arrays = load_record(path)
        if set(arrays) != set(_MEMBERS):
            raise LoadError(f"{path}: members {sorted(arrays)}, expected {list(_MEMBERS)}")
        vocabulary = meta["vocabulary"]
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

