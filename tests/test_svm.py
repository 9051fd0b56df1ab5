import numpy as np
import pytest
from scipy import sparse

from clinrel.learners import (
    KernelCache,
    KernelSpec,
    SmoSolution,
    apply_uneven_margin,
    kernel_eval,
    kernel_matrix,
    smo_decision,
    smo_train,
    svm_decision,
)

from clinrel.learners.svm import SvmModel, _Smo

from _oracles import dual_solve, sparse_kernel_row, sparse_svm_decision

SPECS = (KernelSpec("linear"), KernelSpec("polynomial", 2), KernelSpec("polynomial", 3))


def csr(rows):
    return sparse.csr_matrix(np.asarray(rows, dtype=np.float64))


def random_csr(rng, m, n, density):
    """Canonical CSR with non-integer values, some rows left empty."""
    dense = rng.normal(size=(m, n)) * 3.7 * (rng.random((m, n)) < density)
    dense[::7] = 0.0
    x = sparse.csr_matrix(dense)
    assert x.has_canonical_format
    return x


class TestKernels:
    def test_linear_examples(self):
        lin = KernelSpec("linear")
        assert kernel_eval(lin, [1.0, 2.0], [3.0, 4.0]) == pytest.approx(11.0)
        assert kernel_eval(lin, [1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_quadratic_examples(self):
        poly = KernelSpec("polynomial", 2)
        assert kernel_eval(poly, [1.0, 1.0], [1.0, 1.0]) == pytest.approx(9.0)
        assert kernel_eval(poly, [0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0)
        assert kernel_eval(poly, [2.0], [3.0]) == pytest.approx(49.0)

    def test_cubic(self):
        assert kernel_eval(KernelSpec("polynomial", 3), [1.0], [1.0]) == pytest.approx(8.0)

    def test_sparse_rows(self):
        a = csr([[1.0, 2.0]])
        b = csr([[3.0, 4.0]])
        assert kernel_eval(KernelSpec("linear"), a[0], b[0]) == pytest.approx(11.0)

    def test_matrix_matches_pairwise(self):
        rng = np.random.default_rng(1)
        a = csr(rng.normal(size=(4, 3)))
        b = csr(rng.normal(size=(5, 3)))
        for spec in (KernelSpec("linear"), KernelSpec("polynomial", 2)):
            k = kernel_matrix(spec, a, b)
            assert k.shape == (4, 5)
            for i in range(4):
                for j in range(5):
                    assert k[i, j] == pytest.approx(
                        kernel_eval(spec, a[i], b[j]), abs=1e-12
                    )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec("rbf")
        with pytest.raises(ValueError):
            KernelSpec("polynomial", 0)


class TestKernelCache:
    def test_full_gram_and_lru_agree(self):
        rng = np.random.default_rng(2)
        x = csr(rng.normal(size=(30, 4)))
        spec = KernelSpec("polynomial", 2)
        full = KernelCache(x, spec, cache_mb=100.0)
        tiny = KernelCache(x, spec, cache_mb=1e-4)
        assert full._gram is not None
        assert tiny._gram is None
        reference = kernel_matrix(spec, x, x)
        for i in (0, 7, 29, 7, 0, 15):
            assert np.array_equal(full.row(i), reference[i])
            assert np.array_equal(tiny.row(i), reference[i])

    def test_lru_capacity_bound(self):
        rng = np.random.default_rng(3)
        x = csr(rng.normal(size=(40, 3)))
        tiny = KernelCache(x, KernelSpec("linear"), cache_mb=1e-4)
        for i in range(40):
            tiny.row(i)
        assert len(tiny._rows) <= tiny._capacity

    def test_diagonal(self):
        rng = np.random.default_rng(4)
        x = csr(rng.normal(size=(6, 3)))
        spec = KernelSpec("polynomial", 2)
        cache = KernelCache(x, spec)
        for i in range(6):
            assert cache.diagonal[i] == pytest.approx(kernel_eval(spec, x[i], x[i]))

    def test_training_identical_under_either_cache(self):
        rng = np.random.default_rng(5)
        x = csr(rng.normal(size=(25, 4)))
        y = np.where(rng.integers(0, 2, size=25) == 1, 1.0, -1.0)
        spec = KernelSpec("polynomial", 2)
        a = smo_train(x, y, kernel=spec, cache=KernelCache(x, spec, 100.0))
        b = smo_train(x, y, kernel=spec, cache=KernelCache(x, spec, 1e-4))
        assert np.array_equal(a.alpha, b.alpha)
        assert a.b == b.b


class TestExactProducts:
    """The sparse x dense products equal the sparse x sparse ones bit for bit."""

    def test_lru_rows_equal_sparse_product(self):
        rng = np.random.default_rng(12)
        x = random_csr(rng, 60, 45, 0.3)
        for spec in SPECS:
            cache = KernelCache(x, spec, cache_mb=1e-3)
            assert cache._gram is None
            for i in range(60):
                assert np.array_equal(cache.row(i), sparse_kernel_row(spec, x, i)), (spec, i)

    def test_entry_equals_row_entry_in_every_cache_state(self):
        rng = np.random.default_rng(13)
        x = random_csr(rng, 30, 20, 0.4)
        pairs = rng.integers(0, 30, size=(40, 2))
        for spec in SPECS:
            full = KernelCache(x, spec)
            for i, j in pairs:
                expected = sparse_kernel_row(spec, x, i)[j]
                assert full.entry(i, j) == expected
                assert KernelCache(x, spec, 1e-3).entry(i, j) == expected  # computed
                cached_i = KernelCache(x, spec, 1e-3)
                cached_i.row(i)
                assert cached_i.entry(i, j) == expected
                cached_j = KernelCache(x, spec, 1e-3)
                cached_j.row(j)
                assert cached_j.entry(i, j) == expected  # read as K(j, i)

    def test_non_canonical_input_is_canonicalized(self):
        rng = np.random.default_rng(14)
        x = random_csr(rng, 12, 10, 0.5)
        shuffled = x.copy()
        for r in range(12):
            lo, hi = shuffled.indptr[r], shuffled.indptr[r + 1]
            order = lo + rng.permutation(hi - lo)
            shuffled.indices[lo:hi] = shuffled.indices[order]
            shuffled.data[lo:hi] = shuffled.data[order]
        shuffled.has_sorted_indices = False
        spec = KernelSpec("polynomial", 2)
        ref = KernelCache(x, spec, 1e-3)
        cache = KernelCache(shuffled, spec, 1e-3)
        assert np.array_equal(cache.diagonal, ref.diagonal)
        for i in range(12):
            assert np.array_equal(cache.row(i), ref.row(i))

    def test_decision_equals_sparse_product(self):
        rng = np.random.default_rng(15)
        queries = random_csr(rng, 50, 12, 0.4)
        x = random_csr(rng, 40, 12, 0.5)
        y = np.where(rng.integers(0, 2, size=40) == 1, 1.0, -1.0)
        for spec in SPECS:
            drawn = SvmModel(
                support=random_csr(rng, 17, 12, 0.35),
                coef=rng.normal(size=17),
                intercept=float(rng.normal()),
                kernel=spec,
                tau=0.8,
            )
            trained = apply_uneven_margin(smo_train(x, y, kernel=spec), tau=0.6)
            for model in (drawn, trained):
                assert np.array_equal(svm_decision(model, queries), sparse_svm_decision(model, queries))


class TestRowFetches:
    """SMO fetches kernel rows only for steps that move the multipliers."""

    def _counting(self, monkeypatch):
        calls = []
        original = KernelCache.row

        def counted(cache, i):
            calls.append(i)
            return original(cache, i)

        monkeypatch.setattr(KernelCache, "row", counted)
        return calls

    def test_failed_step_fetches_no_row(self, monkeypatch):
        rng = np.random.default_rng(17)
        x = random_csr(rng, 20, 6, 0.6)
        y = np.ones(20)
        y[10:] = -1.0
        spec = KernelSpec("polynomial", 2)
        cache = KernelCache(x, spec, cache_mb=1e-4)
        solver = _Smo(x, y, 0.7, spec, 1e-3, cache)
        calls = self._counting(monkeypatch)
        i1, i2 = 1, 2
        assert cache.entry(i1, i1) + cache.entry(i2, i2) - 2 * cache.entry(i1, i2) > 0
        solver.alpha[[i1, i2]] = 0.3
        solver.errors[[i1, i2]] = 0.25  # equal errors: the optimum along this pair
        assert not solver.take_step(i1, i2)
        assert calls == []
        solver.errors[i1] = 0.5
        assert solver.take_step(i1, i2)
        assert calls == [i1, i2]

    def test_rows_fetched_are_two_per_step(self, monkeypatch):
        # random labels: a few hundred steps, some of them attempted in vain
        rng = np.random.default_rng(18)
        x = random_csr(rng, 20, 6, 0.5)
        y = np.where(rng.integers(0, 2, size=20) == 1, 1.0, -1.0)
        spec = KernelSpec("linear")
        calls = self._counting(monkeypatch)
        solver = _Smo(x, y, 0.7, spec, 1e-3, KernelCache(x, spec, cache_mb=1e-4))
        assert solver.solve()
        assert solver.steps > 0
        assert len(calls) == 2 * solver.steps


class TestSmo:
    def test_two_point_analytic_solution(self):
        x = csr([[1.0, 1.0], [-1.0, -1.0]])
        y = np.array([1.0, -1.0])
        sol = smo_train(x, y, c=0.7, kernel=KernelSpec("linear"))
        assert sol.converged
        assert sol.alpha == pytest.approx([0.25, 0.25], abs=1e-8)
        assert sol.b == pytest.approx(0.0, abs=1e-8)
        w = np.asarray(x.T @ (sol.alpha * y)).ravel()
        assert w == pytest.approx([0.5, 0.5], abs=1e-8)
        assert smo_decision(sol, x) == pytest.approx([1.0, -1.0], abs=1e-8)

    def test_duplicated_conflicting_points_saturate(self):
        x = csr([[1.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, -1.0])
        sol = smo_train(x, y, c=0.7, kernel=KernelSpec("linear"))
        assert sol.alpha == pytest.approx([0.7, 0.7], abs=1e-9)
        assert sol.b == pytest.approx(0.0, abs=1e-9)
        assert smo_decision(sol, x) == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_dual_constraints_hold(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            m = int(rng.integers(5, 15))
            x = csr(rng.normal(size=(m, 3)))
            y = np.where(rng.integers(0, 2, size=m) == 1, 1.0, -1.0)
            if np.all(y == y[0]):
                y[0] = -y[0]
            sol = smo_train(x, y, c=0.7)
            assert abs(float(sol.alpha @ y)) < 1e-9
            assert np.all(sol.alpha >= -1e-12)
            assert np.all(sol.alpha <= 0.7 + 1e-12)

    def test_agrees_with_coordinate_ascent_oracle(self):
        rng = np.random.default_rng(2024)
        for trial in range(50):
            m = int(rng.integers(4, 21))
            dim = int(rng.integers(2, 6))
            x = rng.normal(size=(m, dim))
            y = np.where(rng.integers(0, 2, size=m) == 1, 1.0, -1.0)
            if np.all(y == y[0]):
                y[0] = -y[0]
            spec = KernelSpec("linear") if trial % 2 == 0 else KernelSpec("polynomial", 2)
            xs = csr(x)
            sol = smo_train(xs, y, c=0.7, kernel=spec, tol=1e-6)
            k = kernel_matrix(spec, xs, xs)
            alpha_o, _, b_lo, b_hi = dual_solve(k, y, 0.7, eps=1e-8)
            # the intercept is only interval-unique when every multiplier is
            # at a bound, so compare against the interval-clipped value
            b_eff = min(max(sol.b, b_lo), b_hi)
            f_smo = smo_decision(sol, xs)
            f_oracle = k @ (alpha_o * y) + b_eff
            assert np.max(np.abs(f_smo - f_oracle)) < 1e-4, trial
            assert sol.b > b_lo - 1e-4 and sol.b < b_hi + 1e-4, trial

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        x = csr(rng.normal(size=(20, 4)))
        y = np.where(rng.integers(0, 2, size=20) == 1, 1.0, -1.0)
        a = smo_train(x, y)
        b = smo_train(x, y)
        assert np.array_equal(a.alpha, b.alpha)
        assert a.b == b.b

    def test_input_validation(self):
        with pytest.raises(ValueError):
            smo_train(sparse.csr_matrix((0, 2)), np.array([]))
        with pytest.raises(ValueError):
            smo_train(csr([[1.0], [2.0]]), np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            smo_train(csr([[1.0], [2.0]]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            smo_train(csr([[1.0], [2.0]]), np.array([1.0, -1.0]), c=0.0)


class TestUnevenMargin:
    def _two_point_solution(self):
        x = csr([[1.0, 1.0], [-1.0, -1.0]])
        y = np.array([1.0, -1.0])
        return smo_train(x, y, c=0.7, kernel=KernelSpec("linear")), x

    def test_exact_transform_values(self):
        sol, x = self._two_point_solution()
        model = apply_uneven_margin(sol, tau=0.8)
        w = np.asarray(model.support.T @ model.coef).ravel()
        assert w == pytest.approx([0.45, 0.45], abs=1e-8)
        assert model.intercept == pytest.approx(0.1, abs=1e-8)
        f = svm_decision(model, x)
        assert f[0] == pytest.approx(1.0, abs=1e-8)
        assert f[1] == pytest.approx(-0.8, abs=1e-8)

    def test_tau_one_is_identity(self):
        sol, x = self._two_point_solution()
        model = apply_uneven_margin(sol, tau=1.0)
        assert np.max(np.abs(svm_decision(model, x) - smo_decision(sol, x))) < 1e-12

    def test_margin_constraints_follow_standard_solution(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(16, 3))
        w_star = np.array([1.0, -2.0, 0.5])
        y = np.where(x @ w_star > 0, 1.0, -1.0)
        xs = csr(x)
        sol = smo_train(xs, y, c=100.0, kernel=KernelSpec("linear"), tol=1e-6)
        f_std = smo_decision(sol, xs)
        for tau in (0.8, 0.5, 0.2):
            model = apply_uneven_margin(sol, tau=tau)
            f = svm_decision(model, xs)
            for fi, si, yi in zip(f, f_std, y):
                if yi > 0 and si >= 1.0 - 1e-6:
                    assert fi >= 1.0 - 1e-6
                if yi < 0 and si <= -1.0 + 1e-6:
                    assert fi <= -tau + 1e-6

    def test_decision_is_affine_in_standard_decision(self):
        sol, x = self._two_point_solution()
        queries = csr(np.random.default_rng(9).normal(size=(20, 2)))
        f_std = smo_decision(sol, queries)
        for tau in (1.0, 0.8, 0.4):
            f = svm_decision(apply_uneven_margin(sol, tau), queries)
            expected = (1.0 + tau) / 2.0 * f_std + (1.0 - tau) / 2.0
            assert np.max(np.abs(f - expected)) < 1e-10

    def test_positive_region_nests_as_tau_decreases(self):
        sol, _ = self._two_point_solution()
        queries = csr(np.random.default_rng(10).normal(size=(200, 2)))
        previous: set[int] = set()
        for tau in (1.0, 0.8, 0.6, 0.4, 0.2):
            f = svm_decision(apply_uneven_margin(sol, tau), queries)
            positive = set(np.flatnonzero(f > 0.0).tolist())
            assert previous <= positive
            previous = positive

    def test_no_support_vectors_constant_decision(self):
        x = csr([[1.0], [2.0]])
        sol = SmoSolution(
            alpha=np.zeros(2),
            b=-0.5,
            x=x,
            y=np.array([1.0, -1.0]),
            kernel=KernelSpec("linear"),
            converged=True,
        )
        model = apply_uneven_margin(sol, tau=0.8)
        f = svm_decision(model, csr([[3.0], [4.0], [5.0]]))
        expected = 0.9 * -0.5 + 0.1
        assert np.allclose(f, expected)

    def test_tau_validation(self):
        sol, _ = self._two_point_solution()
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                apply_uneven_margin(sol, tau=bad)
