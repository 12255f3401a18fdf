"""Left-to-right HMMs with diagonal-Gaussian emissions, one per sign.

The chain has N emitting states plus non-emitting entry and exit states.
Only self and next-state transitions are allowed; the entry state feeds
state 1 and only the last emitting state reaches the exit. Training is
standard multi-sequence Baum-Welch restricted to that topology; scoring is
the log-domain forward algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

from .dataio import load_record, save_record

LOG_ZERO = -np.inf


@dataclass
class HmmModel:
    label: str
    means: np.ndarray         # (N, D)
    variances: np.ndarray     # (N, D), floored
    transitions: np.ndarray   # (N + 2, N + 2) row-stochastic; 0 entry, N+1 exit

    @property
    def n_states(self):
        return self.means.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]

    def emitting_log_trans(self):
        with np.errstate(divide="ignore"):
            return np.log(self.transitions[1:-1, 1:-1])

    def exit_log_probs(self):
        with np.errstate(divide="ignore"):
            return np.log(self.transitions[1:-1, -1])


def _topology(n_states, self_prob):
    """Row-stochastic (N+2)x(N+2) chain: self + forward only, no skips."""
    size = n_states + 2
    trans = np.zeros((size, size))
    trans[0, 1] = 1.0
    for i in range(1, n_states + 1):
        trans[i, i] = self_prob
        trans[i, i + 1] = 1.0 - self_prob
    trans[-1, -1] = 1.0
    return trans


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
        transitions=_topology(n_states, self_prob),
    )


def _emission_logs(model: HmmModel, frames):
    """Log densities, shape (T, N)."""
    x = frames[:, None, :]                      # (T, 1, D)
    mu = model.means[None, :, :]                # (1, N, D)
    var = model.variances[None, :, :]
    quad = np.sum((x - mu) ** 2 / var, axis=2)
    norm = np.sum(np.log(2.0 * np.pi * model.variances), axis=1)  # (N,)
    return -0.5 * (quad + norm[None, :])


def forward_loglik(model: HmmModel, frames) -> float:
    """Log-likelihood via the forward recursion in the log domain.

    The entry state pins the first frame to state 1; the sequence must end
    wherever the exit state is reachable (the last emitting state).
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or len(frames) < 1:
        raise ValueError("need a (T, D) array with T >= 1")
    if frames.shape[1] != model.dim:
        raise ValueError(
            f"frame dimension {frames.shape[1]} does not match model {model.dim}"
        )
    log_a = model.emitting_log_trans()
    emit = _emission_logs(model, frames)
    with np.errstate(divide="ignore"):
        alpha = np.log(model.transitions[0, 1:-1]) + emit[0]
    for t in range(1, len(frames)):
        alpha = logsumexp(alpha[:, None] + log_a, axis=0) + emit[t]
    return float(logsumexp(alpha + model.exit_log_probs()))


def _forward_backward(model: HmmModel, frames):
    log_a = model.emitting_log_trans()
    log_exit = model.exit_log_probs()
    emit = _emission_logs(model, frames)
    t_len, n = emit.shape
    alpha = np.full((t_len, n), LOG_ZERO)
    with np.errstate(divide="ignore"):
        alpha[0] = np.log(model.transitions[0, 1:-1]) + emit[0]
    for t in range(1, t_len):
        alpha[t] = logsumexp(alpha[t - 1][:, None] + log_a, axis=0) + emit[t]
    beta = np.full((t_len, n), LOG_ZERO)
    beta[-1] = log_exit
    for t in range(t_len - 2, -1, -1):
        beta[t] = logsumexp(log_a + (emit[t + 1] + beta[t + 1])[None, :], axis=1)
    loglik = float(logsumexp(alpha[-1] + log_exit))
    return alpha, beta, emit, loglik


def baum_welch(model: HmmModel, samples, max_iter=40, tol=1e-4, var_floor=1e-4):
    """Multi-sequence EM within the no-skip topology.

    Transitions that start at zero stay zero; variances are floored every
    iteration; a state with (numerically) no occupancy keeps its previous
    parameters. Returns (model, per-iteration total log-likelihoods).
    """
    samples = [np.asarray(s, dtype=np.float64) for s in samples]
    if not samples:
        raise ValueError("need at least one training sample")
    n = model.n_states
    dim = model.dim
    history = []
    previous = None
    for _ in range(max_iter):
        log_a = model.emitting_log_trans()
        trans_num = np.zeros((n, n))
        exit_num = np.zeros(n)
        occupancy = np.zeros(n)
        mean_num = np.zeros((n, dim))
        sq_num = np.zeros((n, dim))
        total = 0.0
        for frames in samples:
            alpha, beta, emit, loglik = _forward_backward(model, frames)
            if not math.isfinite(loglik):
                raise FloatingPointError(
                    f"sequence has zero probability under model {model.label!r}"
                )
            total += loglik
            gamma = np.exp(alpha + beta - loglik)            # (T, N)
            occupancy += gamma.sum(axis=0)
            mean_num += gamma.T @ frames
            sq_num += gamma.T @ frames**2
            if len(frames) > 1:
                # xi over t = 0..T-2, only within the allowed sparsity
                contrib = (
                    alpha[:-1, :, None]
                    + log_a[None, :, :]
                    + (emit[1:] + beta[1:])[:, None, :]
                    - loglik
                )
                trans_num += np.exp(logsumexp(contrib, axis=0))
            exit_num += np.exp(alpha[-1] + model.exit_log_probs() - loglik)
        history.append(total)

        new_trans = model.transitions.copy()
        new_means = model.means.copy()
        new_vars = model.variances.copy()
        for i in range(n):
            denom = occupancy[i]
            if denom <= 1e-12:
                continue
            row = np.zeros(n + 2)
            row[1:-1] = trans_num[i]
            row[-1] = exit_num[i]
            row_sum = row.sum()
            if row_sum > 0:
                new_trans[i + 1] = row / row_sum
            new_means[i] = mean_num[i] / denom
            new_vars[i] = np.maximum(sq_num[i] / denom - new_means[i] ** 2, var_floor)
        model = HmmModel(
            label=model.label,
            means=new_means,
            variances=new_vars,
            transitions=new_trans,
        )
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

        Ties resolve to the earlier vocabulary entry.
        """
        scores = np.array(
            [forward_loglik(self.models[label], frames) for label in self.vocabulary]
        )
        best = int(np.argmax(scores))
        return self.vocabulary[best], scores

    def save(self, directory):
        """Write the bank as one record, ``models.npz``, inside `directory`."""
        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        models = [self.models[label] for label in self.vocabulary]
        save_record(out / "models.npz",
                    {"vocabulary": self.vocabulary, "feature_spec": self.feature_spec},
                    **{name: np.stack([getattr(m, name) for m in models])
                       for name in ("means", "variances", "transitions")})

    @classmethod
    def load(cls, directory):
        meta, arrays = load_record(Path(directory) / "models.npz")
        models = {label: HmmModel(label, **{name: a[i] for name, a in arrays.items()})
                  for i, label in enumerate(meta["vocabulary"])}
        return cls(models, meta["vocabulary"], meta["feature_spec"])


def train_bank(samples_by_class, n_states=7, self_prob=0.6, max_iter=40,
               tol=1e-4, var_floor=1e-4, feature_spec="") -> ClassifierBank:
    vocabulary = sorted(samples_by_class)
    models = {}
    for label in vocabulary:
        model = init_model(
            samples_by_class[label],
            label=label,
            n_states=n_states,
            self_prob=self_prob,
            var_floor=var_floor,
        )
        model, _ = baum_welch(
            model, samples_by_class[label], max_iter=max_iter, tol=tol,
            var_floor=var_floor,
        )
        models[label] = model
    return ClassifierBank(models=models, vocabulary=vocabulary,
                          feature_spec=feature_spec)


def save_model(model: HmmModel, path):
    save_record(path, {"label": model.label}, means=model.means,
                variances=model.variances, transitions=model.transitions)


def load_model(path) -> HmmModel:
    meta, arrays = load_record(path)
    return HmmModel(meta["label"], **arrays)
