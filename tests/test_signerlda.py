import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from signrec.config import Config
from signrec.signerlda import (
    LdaTransform,
    accumulate_scatter,
    align_and_resample,
    dtw_align,
    fit_transform,
    project,
    resample_linear,
    solve_transform,
    warp_to_reference,
)


def brute_force_dtw(ref, query):
    """Oracle: minimum cost over every monotone path, by recursion."""
    ref = np.atleast_2d(np.asarray(ref, dtype=float))
    query = np.atleast_2d(np.asarray(query, dtype=float))
    if ref.ndim == 2 and ref.shape[0] == 1 and len(ref) != len(query):
        pass
    n, m = len(ref), len(query)
    local = np.array([[np.sum((ref[i] - query[j]) ** 2) for j in range(m)]
                      for i in range(n)])
    best = {}

    def go(i, j):
        if (i, j) in best:
            return best[(i, j)]
        if i == 0 and j == 0:
            value = local[0, 0]
        else:
            options = []
            if i > 0 and j > 0:
                options.append(go(i - 1, j - 1))
            if i > 0:
                options.append(go(i - 1, j))
            if j > 0:
                options.append(go(i, j - 1))
            value = local[i, j] + min(options)
        best[(i, j)] = value
        return value

    return go(n - 1, m - 1)


def numpy_element_dtw(ref, query):
    """Oracle: the DP over numpy arrays, one element at a time, with its
    step matrix; the diagonal wins ties, up and then left only on strict <.
    Also returns the number of cells where two steps tie for the best."""
    ref = np.asarray(ref, dtype=np.float64).reshape(len(ref), -1)
    query = np.asarray(query, dtype=np.float64).reshape(len(query), -1)
    n, m = len(ref), len(query)
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
    ties = 0
    for i in range(1, n):
        for j in range(1, m):
            steps = (acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1])
            ties += steps.count(min(steps)) > 1
            best, move = acc[i - 1, j - 1], 0
            if acc[i - 1, j] < best:
                best, move = acc[i - 1, j], 1
            if acc[i, j - 1] < best:
                best, move = acc[i, j - 1], 2
            acc[i, j] = best + local[i, j]
            step[i, j] = move
    path = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while (i, j) != (0, 0):
        move = step[i, j]
        i, j = (i - 1, j - 1) if move == 0 else (i - 1, j) if move == 1 else (i, j - 1)
        path.append((i, j))
    return path[::-1], float(acc[n - 1, m - 1]), ties


def loop_warp(ref_xy, query_xy, query_full):
    """Oracle: the warp summed one path step at a time."""
    path, _ = dtw_align(ref_xy, query_xy)
    out = np.zeros((len(ref_xy), query_full.shape[1]))
    counts = np.zeros(len(ref_xy))
    for i, j in path:
        out[i] += query_full[j]
        counts[i] += 1
    return out / counts[:, None]


def dtw_inputs(rng, integer):
    """A random (ref, query) pair; integer-valued frames make many steps tie."""
    n, m = (int(k) for k in rng.integers(1, 14, size=2))
    dim = int(rng.integers(1, 4))
    if integer:
        return (rng.integers(0, 3, size=(n, dim)).astype(float),
                rng.integers(0, 3, size=(m, dim)).astype(float))
    return rng.normal(size=(n, dim)), rng.normal(size=(m, dim))


class TestDtw:
    def test_self_alignment_zero_diagonal(self):
        rng = np.random.default_rng(0)
        seq = rng.normal(size=(6, 4))
        path, cost = dtw_align(seq, seq)
        assert cost == 0.0
        assert path == [(i, i) for i in range(6)]

    def test_duplicated_frames_absorbed(self):
        rng = np.random.default_rng(1)
        seq = rng.normal(size=(5, 2))
        doubled = np.repeat(seq, 2, axis=0)
        _, cost = dtw_align(seq, doubled)
        assert cost == 0.0

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(120):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            ref = rng.normal(size=(n, 2))
            query = rng.normal(size=(m, 2))
            _, cost = dtw_align(ref, query)
            assert cost == pytest.approx(brute_force_dtw(ref, query), rel=1e-12)

    def test_symmetric_under_swap(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(int(rng.integers(2, 9)), 3))
            b = rng.normal(size=(int(rng.integers(2, 9)), 3))
            _, c1 = dtw_align(a, b)
            _, c2 = dtw_align(b, a)
            assert c1 == pytest.approx(c2, rel=1e-12)

    def test_path_monotone_and_pinned(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(7, 2))
        b = rng.normal(size=(5, 2))
        path, _ = dtw_align(a, b)
        assert path[0] == (0, 0) and path[-1] == (6, 4)
        for (i1, j1), (i2, j2) in zip(path, path[1:]):
            assert (i2 - i1, j2 - j1) in {(1, 0), (0, 1), (1, 1)}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dtw_align(np.zeros((0, 2)), np.zeros((3, 2)))

    @pytest.mark.parametrize("integer", [False, True], ids=["float", "tied"])
    def test_matches_numpy_element_dp(self, integer):
        rng = np.random.default_rng(40 + integer)
        tied = 0
        for _ in range(150):
            ref, query = dtw_inputs(rng, integer)
            path, cost = dtw_align(ref, query)
            want_path, want_cost, ties = numpy_element_dtw(ref, query)
            assert path == want_path
            assert cost == want_cost and type(cost) is float
            tied += ties > 0
        # integer frames tie steps in most alignments, random floats in none
        assert tied > 75 if integer else tied == 0

    @pytest.mark.parametrize("integer", [False, True], ids=["float", "tied"])
    def test_warp_matches_step_loop(self, integer):
        rng = np.random.default_rng(50 + integer)
        for _ in range(60):
            ref, query = dtw_inputs(rng, integer)
            full = rng.normal(size=(len(query), 5))
            assert np.array_equal(warp_to_reference(ref, query, full),
                                  loop_warp(ref, query, full))


class TestAlignAndResample:
    def test_single_sample_is_own_middle_third(self):
        rng = np.random.default_rng(5)
        sample = rng.normal(size=(30, 6))
        xy = sample[:, :4]
        out = align_and_resample([xy], [sample], keep_frames=5)
        expected = resample_linear(sample, 15)[5:10]
        assert np.allclose(out[0], expected)
        # a 1-frame sample is its frame repeated, bit for bit in the resampling
        frame = np.array([[-0.0, 1e-300, -1e300, 3.5, -2.25, 0.0]])
        assert resample_linear(frame, 15).tobytes() == np.repeat(frame, 15, axis=0).tobytes()
        out = align_and_resample([frame[:, :4]], [frame], keep_frames=5)
        assert np.array_equal(out[0], np.repeat(frame, 5, axis=0))

    def test_identical_samples_identical_rows(self):
        rng = np.random.default_rng(6)
        sample = rng.normal(size=(24, 6))
        xy = sample[:, :4]
        out = align_and_resample([xy, xy.copy()], [sample, sample.copy()], 5)
        assert np.array_equal(out[0], out[1])

    def test_time_warped_copies_collapse(self):
        # warped copies of one template: alignment removes most of the spread
        base_t = np.linspace(0, 1, 40)

        def make(t):
            return np.column_stack(
                [np.sin(2 * np.pi * t), np.cos(2 * np.pi * t),
                 np.sin(4 * np.pi * t), t]
            )

        samples = []
        for k in range(5):
            a = 0.8 * (k / 4)
            warped_t = base_t + a / (2 * np.pi) * np.sin(2 * np.pi * base_t)
            warped_t = (warped_t - warped_t[0]) / (warped_t[-1] - warped_t[0])
            samples.append(make(warped_t))

        def spread(stack):
            return np.mean(np.var(stack, axis=0))

        raw = np.stack([resample_linear(s, 30)[10:20] for s in samples])
        aligned = align_and_resample([s for s in samples], samples, 10)
        assert spread(aligned) <= 0.10 * spread(raw)

    @pytest.mark.parametrize("length", [1, 2])
    def test_short_sample_aligns(self, length):
        # the chain's hmm_states is the only length rule: a sample that
        # `hmm.trainable` keeps at 1 or 2 states aligns beside longer ones
        rng = np.random.default_rng(7)
        samples = [rng.normal(size=(n, 6)) for n in (length, 20, 24)]
        out = align_and_resample([s[:, :4] for s in samples], samples, 5)
        assert out.shape == (3, 5, 6)
        assert np.isfinite(out).all()

    def test_warp_averages_query_frames(self):
        ref = np.array([[0.0], [10.0]])
        query = np.array([[0.0], [1.0], [10.0]])
        warped = warp_to_reference(ref, query, query)
        # frames 0 and 1 both map to reference slot 0
        assert warped[0, 0] == pytest.approx(0.5)
        assert warped[1, 0] == pytest.approx(10.0)


def hand_scatter(sets_frames):
    """Oracle: longhand loops over the published accumulation formulas."""
    counts = [len(s) for s in sets_frames]
    total = sum(counts)
    t_len = sets_frames[0].shape[1]
    dim = sets_frames[0].shape[2]
    mu_c = [s.mean(axis=0) for s in sets_frames]
    mu = np.zeros((t_len, dim))
    for c, frames in enumerate(sets_frames):
        mu += counts[c] / total * mu_c[c]
    sb = np.zeros((dim, dim))
    sw = np.zeros((dim, dim))
    for t in range(t_len):
        for c, frames in enumerate(sets_frames):
            d = mu_c[c][t] - mu[t]
            sb += np.outer(d, d)
            for n in range(counts[c]):
                e = frames[n, t] - mu_c[c][t]
                sw += counts[c] / total * np.outer(e, e)
    return sb, sw


class TestScatter:
    def test_single_class_between_is_zero(self):
        rng = np.random.default_rng(8)
        between, _ = accumulate_scatter([rng.normal(size=(4, 3, 5))])
        assert np.array_equal(between, np.zeros((5, 5)))

    def test_one_sample_per_class_within_is_zero(self):
        rng = np.random.default_rng(9)
        sets = [rng.normal(size=(1, 3, 5)) for _ in range(4)]
        _, within = accumulate_scatter(sets)
        assert np.array_equal(within, np.zeros((5, 5)))

    def test_matches_longhand_arithmetic(self):
        rng = np.random.default_rng(10)
        sets_frames = [rng.normal(size=(2, 1, 2)), rng.normal(size=(2, 1, 2))]
        between, within = accumulate_scatter(sets_frames)
        sb, sw = hand_scatter(sets_frames)
        assert np.max(np.abs(between - sb)) <= 1e-12
        assert np.max(np.abs(within - sw)) <= 1e-12

    def test_matches_longhand_weighted_sizes(self):
        rng = np.random.default_rng(11)
        sets_frames = [rng.normal(size=(3, 4, 6)), rng.normal(size=(5, 4, 6)),
                       rng.normal(size=(2, 4, 6))]
        between, within = accumulate_scatter(sets_frames)
        sb, sw = hand_scatter(sets_frames)
        assert np.max(np.abs(between - sb)) <= 1e-10
        assert np.max(np.abs(within - sw)) <= 1e-10

    def test_exact_symmetry(self):
        rng = np.random.default_rng(12)
        sets = [rng.normal(size=(4, 5, 8)) for _ in range(3)]
        between, within = accumulate_scatter(sets)
        assert np.array_equal(between, between.T)
        assert np.array_equal(within, within.T)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accumulate_scatter([np.zeros((2, 3, 4)), np.zeros((2, 3, 5))])


class TestSolve:
    def test_two_class_matches_fisher_direction(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            d = 5
            mu1 = rng.normal(size=d)
            mu2 = rng.normal(size=d)
            a = rng.normal(size=(d, d))
            cov_sqrt = a @ a.T / d + np.eye(d)
            x1 = mu1 + rng.normal(size=(40, d)) @ cov_sqrt
            x2 = mu2 + rng.normal(size=(40, d)) @ cov_sqrt
            between, within = accumulate_scatter([x1[:, None, :], x2[:, None, :]])
            weights, _ = solve_transform(between, within, out_dim=1, shrinkage=1e-9)
            m1 = x1.mean(axis=0)
            m2 = x2.mean(axis=0)
            fisher = np.linalg.solve(within, m1 - m2)
            w = weights[:, 0]
            cos = abs(fisher @ w) / (np.linalg.norm(fisher) * np.linalg.norm(w))
            assert cos >= 0.999

    def test_zero_between_all_zero_eigenvalues(self):
        rng = np.random.default_rng(14)
        scatter = accumulate_scatter([rng.normal(size=(6, 2, 4))])
        _, eigenvalues = solve_transform(*scatter, out_dim=4)
        assert np.max(np.abs(eigenvalues)) <= 1e-10

    def test_residual_of_generalized_problem(self):
        rng = np.random.default_rng(15)
        sets = [rng.normal(size=(6, 3, 7)) + c for c in range(3)]
        between, within = accumulate_scatter(sets)
        weights, eigenvalues = solve_transform(between, within, out_dim=4, shrinkage=1e-3)
        ridge = 1e-3 * np.trace(within) / 7 * np.eye(7)
        for k in range(4):
            w = weights[:, k]
            lam = eigenvalues[k]
            residual = between @ w - lam * (within + ridge) @ w
            assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(w)

    def test_eigenvalues_descending_nonnegative(self):
        rng = np.random.default_rng(16)
        sets = [rng.normal(size=(5, 2, 6)) + 2 * c for c in range(4)]
        _, values = solve_transform(*accumulate_scatter(sets), out_dim=6)
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] >= -1e-10

    def test_sign_convention(self):
        rng = np.random.default_rng(17)
        sets = [rng.normal(size=(5, 2, 6)) + c for c in range(3)]
        weights, _ = solve_transform(*accumulate_scatter(sets), out_dim=3)
        for k in range(3):
            w = weights[:, k]
            assert w[np.argmax(np.abs(w))] > 0

    def test_too_many_dims_rejected(self):
        rng = np.random.default_rng(18)
        scatter = accumulate_scatter([rng.normal(size=(3, 2, 4))])
        with pytest.raises(ValueError):
            solve_transform(*scatter, out_dim=5)

    def test_singular_scatter_without_ridge_fails_at_once(self):
        within = np.diag([2.0, 1.0, 0.0])   # an all-zero (idle-hand) column
        with pytest.raises(ValueError, match="singular at lda_shrinkage=0.0"):
            solve_transform(np.eye(3), within, 2, shrinkage=0.0)

    def test_ridge_below_rounding_names_the_shrinkage(self):
        within = np.ones((2, 2))            # singular; 1 + 1e-20 rounds to 1
        with pytest.raises(ValueError, match="singular at lda_shrinkage=1e-20"):
            solve_transform(np.eye(2), within, 1, shrinkage=1e-20)

    def test_zero_within_scatter_gets_the_bare_shrinkage(self):
        # one training sample per class leaves no within-sign scatter: the
        # ridge is then lda_shrinkage times the identity
        between = np.diag([3.0, 1.0, 0.5])
        weights, eigenvalues = solve_transform(between, np.zeros((3, 3)), 3, shrinkage=0.1)
        assert np.allclose(weights.T @ (0.1 * np.eye(3)) @ weights, np.eye(3))
        assert np.allclose(eigenvalues, [30.0, 10.0, 5.0])

    @pytest.mark.parametrize("name, value", [("within", np.nan), ("between", np.nan),
                                             ("between", np.inf), ("within", -np.inf)])
    def test_non_finite_scatter_named_before_any_ridge(self, name, value, monkeypatch):
        scatter = {"between": np.eye(3), "within": np.diag([2.0, 1.0, 1.0])}
        scatter[name][1, 2] = value

        def no_factorization(matrix):
            raise AssertionError("a ridge was tried")

        monkeypatch.setattr(np.linalg, "cholesky", no_factorization)
        with pytest.raises(ValueError, match=f"^{name}-sign scatter is not finite"):
            solve_transform(scatter["between"], scatter["within"], 2)


class TestSolveAgainstScipy:
    """`solve_transform` against scipy's generalized `eigh` under the same
    ridge (`reference_kernels.reference_solve_transform`)."""

    @settings(max_examples=150)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 24), st.integers(1, 26),
           st.sampled_from([1e-12, 1e-9, 1e-3]))
    def test_matches_scipy(self, seed, dim, classes, shrinkage):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3 * dim, dim)) * rng.uniform(0.5, 2.0, size=dim)
        b = rng.normal(size=(classes, dim))
        between, within = b.T @ b, a.T @ a
        weights, values = solve_transform(between, within, dim, shrinkage)
        want_weights, want_values = ref.reference_solve_transform(
            between, within, dim, shrinkage)
        scale = np.abs(want_values).max()
        assert np.abs(values - want_values).max() <= 1e-10 * scale
        regularized = within + shrinkage * np.trace(within) / dim * np.eye(dim)
        assert np.abs(weights.T @ regularized @ weights - np.eye(dim)).max() <= 1e-9
        for k in range(dim):
            gap = np.abs(np.delete(want_values, k) - want_values[k]).min()
            if gap > 1e-3 * scale:
                column = want_weights[:, k]
                assert (np.abs(weights[:, k] - column).max()
                        <= 1e-7 * np.abs(column).max()), k


class TestProject:
    def test_identity_selects_coordinates(self):
        transform = LdaTransform(
            weights=np.eye(6)[:, :3], eigenvalues=np.ones(3), keep_frames=5,
            shrinkage=0.0,
        )
        frames = np.arange(12, dtype=float).reshape(2, 6)
        assert np.array_equal(project(frames, transform), frames[:, :3])

    def test_zero_frame_zero_output(self):
        transform = LdaTransform(
            weights=np.ones((4, 2)), eigenvalues=np.ones(2), keep_frames=5,
            shrinkage=0.0,
        )
        assert not project(np.zeros((3, 4)), transform).any()

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(19)
        frames = rng.normal(size=(4, 5))
        weights = rng.normal(size=(5, 3))
        transform = LdaTransform(weights=weights, eigenvalues=np.ones(3),
                                 keep_frames=5, shrinkage=0.0)
        got = project(frames, transform)
        expected = np.zeros((4, 3))
        for t in range(4):
            for k in range(3):
                acc = 0.0
                for d in range(5):
                    acc += frames[t, d] * weights[d, k]
                expected[t, k] = acc
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(20)
        weights = rng.normal(size=(5, 3))
        transform = LdaTransform(weights=weights, eigenvalues=np.ones(3),
                                 keep_frames=5, shrinkage=0.0)
        x = rng.normal(size=(3, 5))
        y = rng.normal(size=(3, 5))
        lhs = project(2.5 * x + 0.5 * y, transform)
        rhs = 2.5 * project(x, transform) + 0.5 * project(y, transform)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_dimension_mismatch(self):
        transform = LdaTransform(weights=np.ones((4, 2)), eigenvalues=np.ones(2),
                                 keep_frames=5, shrinkage=0.0)
        with pytest.raises(ValueError):
            project(np.zeros((3, 5)), transform)


class TestTransformIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        transform = LdaTransform(
            weights=rng.normal(size=(6, 3)),
            eigenvalues=np.sort(rng.uniform(0, 5, 3))[::-1],
            keep_frames=15,
            shrinkage=1e-3,
            feature_spec="pos,S",
        )
        transform.save(tmp_path / "w.txt")
        loaded = LdaTransform.load(tmp_path / "w.txt")
        assert np.array_equal(loaded.weights, transform.weights)
        assert np.array_equal(loaded.eigenvalues, transform.eigenvalues)
        assert loaded.keep_frames == 15
        assert loaded.shrinkage == 1e-3
        assert loaded.feature_spec == "pos,S"

    def test_fit_transform_end_to_end(self):
        rng = np.random.default_rng(22)
        by_class, posxy = {}, {}
        for c in range(3):
            frames = [rng.normal(size=(20 + 2 * k, 6)) + c for k in range(4)]
            by_class[f"c{c}"] = frames
            posxy[f"c{c}"] = [f[:, :4] for f in frames]
        transform = fit_transform(by_class, posxy, 3, Config())
        assert transform.weights.shape == (6, 3)
        assert transform.keep_frames == 15
