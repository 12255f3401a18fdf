import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from signrec.config import Config
from signrec.dataio import LoadError, save_record
from signrec.evaluation import prepare_dataset
from signrec.features import FeatureSetSpec
from signrec.hmm import (
    VAR_FLOOR,
    ClassifierBank,
    HmmModel,
    _bands,
    _emission_logs,
    _expected_counts,
    _forward_backward,
    _pad,
    _reestimate,
    baum_welch,
    forward_loglik,
    init_model,
    train_bank,
)


def random_model(rng, n_states, dim, label="m"):
    model = init_model([rng.normal(size=(n_states * 3, dim))], label=label,
                       n_states=n_states)
    model.stay = np.full(n_states, rng.uniform(0.3, 0.8))
    model.leave = 1.0 - model.stay
    model.means = rng.normal(size=(n_states, dim))
    model.variances = rng.uniform(0.3, 2.0, size=(n_states, dim))
    return model


def dense(model):
    """The model's (N+2)x(N+2) transition matrix: entry state 0, emitting
    states 1..N, exit state N+1."""
    n = model.n_states
    trans = np.zeros((n + 2, n + 2))
    trans[0, 1] = 1.0
    states = np.arange(1, n + 1)
    trans[states, states] = model.stay
    trans[states, states + 1] = model.leave
    trans[-1, -1] = 1.0
    return trans


def gaussian_logpdf(x, mean, var):
    return float(
        -0.5 * np.sum(np.log(2 * np.pi * var) + (x - mean) ** 2 / var)
    )


def enumerate_paths(model, frames):
    """Every admissible state path with its joint log probability."""
    n = model.n_states
    t_len = len(frames)
    trans = dense(model)
    for path in itertools.product(range(n), repeat=t_len):
        if path[0] != 0:
            continue
        if path[-1] != n - 1:
            continue
        logp = 0.0
        ok = True
        for a, b in zip(path, path[1:]):
            p = trans[a + 1, b + 1]
            if p <= 0:
                ok = False
                break
            logp += math.log(p)
        if not ok:
            continue
        exit_p = trans[n, n + 1]
        if exit_p <= 0:
            continue
        logp += math.log(exit_p)
        for t, state in enumerate(path):
            logp += gaussian_logpdf(frames[t], model.means[state],
                                    model.variances[state])
        yield path, logp


def enumerate_loglik(model, frames):
    """Oracle: log of the explicit sum over every admissible state path."""
    total = -np.inf
    for _, logp in enumerate_paths(model, frames):
        total = np.logaddexp(total, logp)
    return total


def enumerate_em_step(model, samples, var_floor):
    """Oracle: one EM step from path-enumerated posterior counts."""
    n, dim = model.n_states, model.dim
    occupancy, stays, leaves = np.zeros(n), np.zeros(n), np.zeros(n)
    first, second = np.zeros((n, dim)), np.zeros((n, dim))
    for frames in samples:
        paths = list(enumerate_paths(model, frames))
        total = enumerate_loglik(model, frames)
        for path, logp in paths:
            weight = math.exp(logp - total)
            for t, state in enumerate(path):
                occupancy[state] += weight
                first[state] += weight * frames[t]
                second[state] += weight * frames[t] ** 2
            for a, b in zip(path, path[1:]):
                (stays if a == b else leaves)[a] += weight
            leaves[n - 1] += weight          # the exit
    trans = dense(model)
    for i in range(n):
        trans[i + 1, i + 1] = stays[i] / (stays[i] + leaves[i])
        trans[i + 1, i + 2] = leaves[i] / (stays[i] + leaves[i])
    means = first / occupancy[:, None]
    variances = np.maximum(second / occupancy[:, None] - means**2, var_floor)
    return means, variances, trans


def direct_emission_logs(model, frames):
    """Oracle: diagonal-Gaussian log densities (..., N) in the direct form,
    sum((x - m)**2 / v), with one (..., N, D) temporary."""
    quad = (frames[..., None, :] - model.means) ** 2 / model.variances
    return -0.5 * (quad.sum(axis=-1)
                   + np.sum(np.log(2.0 * np.pi * model.variances), axis=1))


def rowwise_forward(bands, emit):
    """Oracle: alpha (T, B, N) built batch-major, one whole row copy per
    step, with no sentinel."""
    stay, advance, _ = bands
    alpha = np.empty_like(emit)
    alpha[0] = -np.inf
    alpha[0, :, 0] = emit[0, :, 0]
    for t in range(1, len(emit)):
        prev = alpha[t - 1]
        alpha[t] = prev + stay
        np.logaddexp(alpha[t, :, 1:], prev[:, :-1] + advance, out=alpha[t, :, 1:])
        alpha[t] += emit[t]
    return alpha


def rowwise_backward(bands, emit, lengths):
    """Oracle: beta (T, B, N) built like `rowwise_forward`, with a fresh end
    mask per step."""
    stay, advance, leave = bands
    beta = np.empty_like(emit)
    last = np.full(emit.shape[2], -np.inf)
    last[-1] = leave
    beta[-1] = last
    for t in range(len(emit) - 2, -1, -1):
        ahead = emit[t + 1] + beta[t + 1]
        beta[t] = ahead + stay
        np.logaddexp(beta[t, :, :-1], ahead[:, 1:] + advance, out=beta[t, :, :-1])
        beta[t, lengths - 1 == t] = last
    return beta


class TestInitModel:
    def test_constant_sample_all_means_equal(self):
        sample = np.full((21, 3), 2.5)
        model = init_model([sample], n_states=7)
        assert np.allclose(model.means, 2.5)
        assert np.allclose(model.variances, 1e-4)   # floored

    def test_length_equal_to_states_one_frame_each(self):
        sample = np.arange(7, dtype=float)[:, None]
        model = init_model([sample], n_states=7)
        assert np.allclose(model.means[:, 0], np.arange(7))

    def test_two_level_sequence_segments(self):
        sample = np.concatenate([np.zeros((14, 1)), np.full((14, 1), 9.0)])
        model = init_model([sample], n_states=7)
        assert np.allclose(model.means[:3, 0], 0.0)
        assert np.allclose(model.means[4:, 0], 9.0)

    def test_topology_rows_stochastic(self):
        model = init_model([np.zeros((14, 2))], n_states=7, self_prob=0.6)
        assert np.allclose(model.stay, 0.6)
        assert np.allclose(model.stay + model.leave, 1.0, atol=1e-12)

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            init_model([], n_states=7)

    def test_sequence_shorter_than_chain_rejected(self):
        with pytest.raises(ValueError, match="6 frames is shorter than the 7 states"):
            init_model([np.zeros((14, 2)), np.zeros((6, 2))], n_states=7)

    @settings(max_examples=300)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7), dim=st.integers(1, 99),
           extra=st.lists(st.integers(0, 12), min_size=1, max_size=9),
           offset=st.sampled_from([0.0, 1e4, -3e2]))
    @example(seed=0, n=7, dim=1, extra=[0], offset=1e4)      # D = 1 and T = N
    @example(seed=1, n=1, dim=1, extra=[40, 3], offset=0.0)  # one state pools everything
    def test_matches_split_and_concatenate(self, seed, n, dim, extra, offset):
        """The one-pass flat start gives the bytes of the per-state split,
        concatenate, mean and var it replaced."""
        rng = np.random.default_rng(seed)
        samples = [offset + rng.normal(size=(n + e, dim)) for e in extra]
        model = init_model(samples, n_states=n)
        means, variances = ref.reference_init_model(samples, n)
        assert model.means.dtype == means.dtype
        assert np.array_equal(model.means, means)
        assert np.array_equal(model.variances, variances)

    def test_every_segment_holds_a_frame(self):
        # on a ramp, non-empty consecutive segments have rising means
        for n in range(1, 13):
            for length in range(n, n + 60):
                model = init_model([np.arange(float(length))[:, None]], n_states=n)
                assert np.all(np.diff(model.means[:, 0]) > 0), (n, length)


class TestForward:
    def test_single_frame_boundary(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, 1, 2)
        x = rng.normal(size=(1, 2))
        expected = (
            gaussian_logpdf(x[0], model.means[0], model.variances[0])
            + math.log(model.leave[0])
        )
        assert forward_loglik(model, x) == pytest.approx(expected, rel=1e-12)

    def test_deterministic_chain_single_path(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, 7, 2)
        model.stay = np.zeros(7)
        model.leave = np.ones(7)
        x = rng.normal(size=(7, 2))
        expected = sum(
            gaussian_logpdf(x[t], model.means[t], model.variances[t]) for t in range(7)
        )
        assert forward_loglik(model, x) == pytest.approx(expected, rel=1e-12)

    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            dim = int(rng.integers(1, 4))
            t_len = int(rng.integers(n, 7))
            model = random_model(rng, n, dim)
            frames = rng.normal(size=(t_len, dim))
            got = forward_loglik(model, frames)
            want = enumerate_loglik(model, frames)
            assert got == pytest.approx(want, rel=1e-9)

    def test_too_short_to_reach_exit(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 4, 2)
        assert forward_loglik(model, rng.normal(size=(2, 2))) == -np.inf

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 3, 2)
        with pytest.raises(ValueError):
            forward_loglik(model, rng.normal(size=(5, 3)))


class TestBankRecord:
    """A bank record is outside input: anything but four members of
    matching shapes fails to load, naming the file."""

    def save_members(self, directory, vocabulary, **members):
        directory.mkdir()
        save_record(directory / "models.npz",
                    {"vocabulary": vocabulary, "feature_spec": ""}, **members)

    def test_dense_transitions_rejected(self, tmp_path):
        rng = np.random.default_rng(15)
        model = random_model(rng, 3, 2)
        self.save_members(tmp_path / "bank", ["a"], means=model.means[None],
                          variances=model.variances[None],
                          transitions=dense(model)[None])
        with pytest.raises(LoadError, match="models.npz.*members"):
            ClassifierBank.load(tmp_path / "bank")

    @pytest.mark.parametrize("vocabulary, stay_shape", [
        (["a"], (2, 3)), (["a"], (1, 4)), (["a"], (1, 3, 1)), (["a", "b"], (1, 3))])
    def test_mismatched_shapes_rejected(self, tmp_path, vocabulary, stay_shape):
        rng = np.random.default_rng(20)
        model = random_model(rng, 3, 2)
        self.save_members(tmp_path / "bank", vocabulary, means=model.means[None],
                          variances=model.variances[None],
                          stay=np.full(stay_shape, 0.5), leave=model.leave[None])
        with pytest.raises(LoadError, match="models.npz.*shapes"):
            ClassifierBank.load(tmp_path / "bank")

    def three_class_members(self):
        rng = np.random.default_rng(24)
        models = [random_model(rng, 3, 2, label) for label in "abc"]
        return {name: np.stack([getattr(m, name) for m in models])
                for name in ("means", "variances", "stay", "leave")}

    def test_repeated_label_rejected(self, tmp_path):
        members = self.three_class_members()
        self.save_members(tmp_path / "bank", ["a", "a"],
                          **{name: a[:2] for name, a in members.items()})
        with pytest.raises(LoadError, match=r"models.npz: vocabulary \['a', 'a'\] repeats"):
            ClassifierBank.load(tmp_path / "bank")

    @pytest.mark.parametrize("member, value, what", [
        ("means", np.inf, "finite"), ("means", np.nan, "finite"),
        ("variances", np.nan, "finite and above 0"), ("variances", 0.0, "finite and above 0"),
        ("variances", -1.0, "finite and above 0"), ("variances", np.inf, "finite and above 0"),
        ("stay", 1.7, r"in \[0, 1\]"), ("stay", np.nan, r"in \[0, 1\]"),
        ("leave", -0.1, r"in \[0, 1\]")])
    def test_values_no_fit_gives_rejected(self, tmp_path, member, value, what):
        # a NaN variance would otherwise score NaN, and argmax picks a NaN
        members = self.three_class_members()
        members[member][2, 1] = value
        self.save_members(tmp_path / "bank", ["a", "b", "c"], **members)
        with pytest.raises(LoadError, match=rf"models.npz: {member} of model 'c' are not "
                                            rf"all {what}$"):
            ClassifierBank.load(tmp_path / "bank")


class TestRecursions:
    def test_sentinel_recursions_equal_rowwise(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            model = random_model(rng, n, 2)
            if rng.random() < 0.25:       # a state that never advances
                k = int(rng.integers(1, n + 1))
                model.stay[k - 1], model.leave[k - 1] = 1.0, 0.0
            lengths = rng.integers(1, 12, size=int(rng.integers(1, 6)))
            padded, lengths, squares = _pad([rng.normal(size=(t, 2)) for t in lengths])
            bands = _bands(model)
            emit = _emission_logs(model, padded, squares)
            alpha, beta = _forward_backward(bands, emit, lengths)
            valid = np.arange(len(padded))[:, None] < lengths
            assert np.array_equal(alpha, rowwise_forward(bands, emit))
            assert np.array_equal(beta[valid],
                                  rowwise_backward(bands, emit, lengths)[valid])

    @settings(max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7),
           lengths=st.lists(st.integers(1, 15), min_size=1, max_size=6),
           stuck=st.lists(st.integers(0, 6), max_size=3))
    @example(seed=0, n=5, lengths=[3, 5, 9, 1], stuck=[2])   # T < N, and a stay of 1
    def test_recursions_property(self, seed, n, lengths, stuck):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n, 3)
        for k in stuck:               # states that never advance
            if k < n:
                model.stay[k], model.leave[k] = 1.0, 0.0
        samples = [rng.normal(size=(t, 3)) for t in lengths]
        padded, lengths, squares = _pad(samples)
        bands = _bands(model)
        emit = _emission_logs(model, padded, squares)
        alpha, beta = _forward_backward(bands, emit, lengths)
        valid = np.arange(len(padded))[:, None] < lengths
        assert alpha.flags.c_contiguous and beta.flags.c_contiguous
        assert np.array_equal(alpha, rowwise_forward(bands, emit))
        assert np.array_equal(beta[valid], rowwise_backward(bands, emit, lengths)[valid])
        assert np.all(beta[~valid] == -np.inf)
        for frames in samples:
            single = _emission_logs(model, frames, frames * frames)[:, None]
            score = forward_loglik(model, frames)
            assert score == rowwise_forward(bands, single)[-1, 0, -1] + bands[2]
            if len(frames) < n:
                assert score == -np.inf


class TestEmissions:
    def test_matrix_products_match_direct_form_on_features(self, tiny_extracted):
        """The expanded quadratic against (x - m)**2 / v on pos,S,HOG
        (D = 98), with every variance at the floor, where the expansion's
        terms are largest. A sum of D rounded terms is within D * eps of the
        sum of their magnitudes, so that is the bound."""
        extracted, cfg = tiny_extracted
        prepared = prepare_dataset(extracted, FeatureSetSpec.parse("pos,S,HOG"), cfg)
        frames = [p.frames for p in prepared]
        assert frames[0].shape[1] == 98
        worst = 0.0
        for label in sorted({p.label for p in prepared}):
            model = init_model([p.frames for p in prepared if p.label == label])
            model.variances[:] = VAR_FLOOR
            precision = 1.0 / model.variances
            for x in frames:
                got = _emission_logs(model, x, x * x)
                want = direct_emission_logs(model, x)
                scale = 0.5 * ((x * x) @ precision.T
                               + np.sum(model.means**2 * precision
                                        + np.abs(np.log(2 * np.pi * model.variances)),
                                        axis=1))
                worst = max(worst, float(np.max(np.abs(got - want) / scale)))
        assert worst <= 98 * np.finfo(float).eps


class TestBaumWelch:
    def test_one_step_matches_path_enumeration(self):
        rng = np.random.default_rng(16)
        for _ in range(12):
            n = int(rng.integers(1, 5))
            dim = int(rng.integers(1, 3))
            samples = [rng.normal(size=(int(rng.integers(n, 7)), dim))
                       for _ in range(int(rng.integers(1, 4)))]
            model = random_model(rng, n, dim)
            trained, _ = baum_welch(model, samples, max_iter=1, var_floor=1e-4)
            means, variances, trans = enumerate_em_step(model, samples, 1e-4)
            np.testing.assert_allclose(trained.means, means, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(trained.variances, variances, rtol=1e-9,
                                       atol=1e-12)
            np.testing.assert_allclose(dense(trained), trans, rtol=1e-9,
                                       atol=1e-12)

    @pytest.mark.parametrize("n, lengths", [(4, [4, 9, 5, 13]), (1, [1, 3, 1, 6]),
                                            (3, [7])])
    def test_padded_batch_matches_single_sequences(self, n, lengths):
        rng = np.random.default_rng(17)
        samples = [rng.normal(size=(t_len, 2)) for t_len in lengths]
        model = init_model(samples, n_states=n)
        trained, history = baum_welch(model, samples, max_iter=4, tol=0.0)
        reference = model
        for step in range(4):
            singles = [_expected_counts(reference, *_pad([s])) for s in samples]
            batch = _expected_counts(reference, *_pad(samples))
            np.testing.assert_allclose(batch[0], [c[0][0] for c in singles],
                                       rtol=1e-12)
            for got, *want in list(zip(batch, *singles))[1:]:
                np.testing.assert_allclose(got, np.sum(want, axis=0), rtol=1e-12,
                                           atol=1e-12)
            assert history[step] == pytest.approx(np.sum(batch[0]), rel=1e-12)
            counts = [np.sum(parts, axis=0) for parts in zip(*singles)][1:]
            reference = _reestimate(reference, counts, 1e-4)
        for name in ("means", "variances", "stay", "leave"):
            np.testing.assert_allclose(getattr(trained, name),
                                       getattr(reference, name), rtol=1e-12,
                                       atol=1e-12)

    @settings(max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7),
           extra=st.lists(st.integers(0, 12), min_size=1, max_size=6),
           no_repeat=st.lists(st.integers(0, 6), max_size=3))
    @example(seed=0, n=1, extra=[0], no_repeat=[])
    @example(seed=1, n=4, extra=[0, 0, 9], no_repeat=[0, 2])
    def test_counts_cover_every_state(self, seed, n, extra, no_repeat):
        """What `_reestimate`'s plain ratios rely on: every path of a
        sequence the model can score visits every state, so each state's
        occupancy is at least the batch size, and each visit ends in a stay,
        an advance or the exit, so those counts sum to the occupancy."""
        rng = np.random.default_rng(seed)
        model = random_model(rng, n, 2)
        model.stay = rng.uniform(0.05, 0.95, size=n)
        model.stay[[k for k in no_repeat if k < n - 1]] = 0.0   # state n keeps a stay
        model.leave = 1.0 - model.stay
        samples = [rng.normal(size=(n + e, 2)) for e in extra]
        _, occupancy, _, _, stays, moves, exits = _expected_counts(model, *_pad(samples))
        assert np.all(occupancy >= len(samples) * (1.0 - 1e-9))
        np.testing.assert_allclose(stays + np.append(moves, exits), occupancy,
                                   rtol=1e-9)

    def test_loglik_never_decreases(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            dim = int(rng.integers(1, 3))
            samples = [rng.normal(size=(int(rng.integers(n + 2, 16)), dim))
                       for _ in range(3)]
            model = init_model(samples, n_states=n, self_prob=0.6)
            _, history = baum_welch(model, samples, max_iter=15, tol=0.0)
            for a, b in zip(history, history[1:]):
                assert b >= a - 1e-8

    def test_self_consistent_data_converges_fast(self):
        rng = np.random.default_rng(6)
        means = np.array([[0.0], [5.0], [10.0]])
        samples = []
        for _ in range(4):
            frames = np.concatenate(
                [m + 0.1 * rng.normal(size=(6, 1)) for m in means]
            )
            samples.append(frames)
        model = init_model(samples, n_states=3, self_prob=0.6)
        _, history = baum_welch(model, samples, max_iter=15, tol=1e-4)
        assert len(history) < 10

    def test_topology_zeros_stay_zero(self):
        rng = np.random.default_rng(7)
        samples = [rng.normal(size=(20, 2)) for _ in range(3)]
        model = init_model(samples, n_states=5)
        model.stay[2], model.leave[2] = 0.0, 1.0     # state 3 never repeats
        trained, _ = baum_welch(model, samples, max_iter=10, tol=0.0)
        assert trained.stay[2] == 0.0 and trained.leave[2] == 1.0
        assert np.all(trained.stay[[0, 1, 3, 4]] > 0.0)

    def test_rows_stay_stochastic(self):
        rng = np.random.default_rng(8)
        samples = [rng.normal(size=(20, 2)) for _ in range(3)]
        trained, _ = baum_welch(init_model(samples, n_states=5), samples,
                                max_iter=10, tol=0.0)
        assert np.allclose(trained.stay + trained.leave, 1.0, atol=1e-12)

    def test_sequence_shorter_than_chain_raises(self):
        rng = np.random.default_rng(9)
        samples = [rng.normal(size=(20, 2)), rng.normal(size=(3, 2))]
        model = init_model(samples[:1], n_states=5)
        model.label = "sign07"
        with pytest.raises(FloatingPointError, match="under model 'sign07'"):
            baum_welch(model, samples)

    def test_variance_floor_enforced(self):
        samples = [np.full((20, 2), 3.0)]
        trained, _ = baum_welch(init_model(samples, n_states=4), samples,
                                max_iter=5, tol=0.0, var_floor=1e-4)
        assert np.all(trained.variances >= 1e-4)


class TestClassify:
    def test_single_model_always_wins(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, 3, 2, label="only")
        bank = ClassifierBank([model])
        label, scores = bank.classify(rng.normal(size=(8, 2)))
        assert label == "only"
        assert len(scores) == 1

    def test_identical_models_tie_to_earlier_vocab(self):
        rng = np.random.default_rng(10)
        model = random_model(rng, 3, 2)
        bank = ClassifierBank([dataclasses.replace(model, label="a"),
                               dataclasses.replace(model, label="b")])
        label, scores = bank.classify(rng.normal(size=(8, 2)))
        assert label == "a"
        assert scores[0] == scores[1]

    def test_scores_invariant_under_bank_order(self):
        # the same two models listed in both orders: the scores permute and
        # the decision stays the same
        rng = np.random.default_rng(11)
        m1 = random_model(rng, 3, 2, "x")
        m2 = random_model(rng, 3, 2, "y")
        frames = rng.normal(size=(9, 2))
        label, scores = ClassifierBank([m1, m2]).classify(frames)
        swapped_label, swapped = ClassifierBank([m2, m1]).classify(frames)
        assert np.array_equal(swapped, scores[::-1])
        assert scores[0] != scores[1]
        assert swapped_label == label

    def test_separable_generators_recovered(self):
        rng = np.random.default_rng(12)
        def draw(shift):
            ramp = np.linspace(0, 1, 20)[:, None]
            return shift * ramp + 0.05 * rng.normal(size=(20, 2))

        by_class = {
            "up": [draw(np.array([3.0, 0.0])) for _ in range(5)],
            "down": [draw(np.array([-3.0, 0.0])) for _ in range(5)],
        }
        bank = train_bank(by_class, Config(hmm_states=4))
        for label, samples in by_class.items():
            for s in samples:
                assert bank.classify(s)[0] == label

    def test_class_with_no_sequence_as_long_as_the_chain_named(self):
        rng = np.random.default_rng(25)
        by_class = {"long": [rng.normal(size=(20, 2))], "short": [rng.normal(size=(12, 2))]}
        with pytest.raises(ValueError, match="class 'short': every sequence is shorter "
                                             "than hmm_states=13"):
            train_bank(by_class, Config(hmm_states=13))

    def test_sequence_shorter_than_chain_is_unscorable(self):
        rng = np.random.default_rng(18)
        bank = ClassifierBank([random_model(rng, 7, 2, "a"), random_model(rng, 7, 2, "b")])
        label, scores = bank.classify(rng.normal(size=(5, 2)))
        assert label is None
        assert np.all(scores == -np.inf)


class TestModelIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        model = random_model(rng, 5, 3, label="sign07")
        ClassifierBank([model]).save(tmp_path / "bank")
        [loaded] = ClassifierBank.load(tmp_path / "bank").models
        assert loaded.label == "sign07"
        for name in ("means", "variances", "stay", "leave"):
            assert np.array_equal(getattr(loaded, name), getattr(model, name))

    def test_bank_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        bank = ClassifierBank([random_model(rng, 3, 2, "a"), random_model(rng, 3, 2, "b")])
        bank.save(tmp_path / "bank")
        loaded = ClassifierBank.load(tmp_path / "bank")
        assert loaded.vocabulary == ["a", "b"]
        for got, saved in zip(loaded.models, bank.models):
            assert np.array_equal(got.means, saved.means)
