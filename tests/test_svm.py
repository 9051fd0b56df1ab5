import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from clinrel.features import FeatureConfig
from clinrel.harness import corpus_features, prepare_folds
from clinrel.learners import (
    KernelCache,
    KernelSpec,
    SmoSolution,
    SvmParams,
    apply_uneven_margin,
    kernel_matrix,
    smo_train,
    svm,
    svm_decision,
)

from clinrel.learners.svm import SvmModel, _Smo
from clinrel.synth import GeneratorConfig, generate_synthetic

from _oracles import (
    assert_same_csr,
    dense_kernel_row,
    dual_solve,
    full_scan_smo,
    kernel_eval,
    kkt_problems,
    power_kernel_matrix,
    smo_decision,
    sparse_kernel_row,
    sparse_svm_decision,
)

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

    def test_in_place_matrix_equals_power_formula(self):
        rng = np.random.default_rng(21)
        a = random_csr(rng, 40, 30, 0.3)
        b = random_csr(rng, 25, 30, 0.3)
        specs = (KernelSpec("linear"),) + tuple(KernelSpec("polynomial", d) for d in range(1, 5))
        for spec in specs:
            for left, right in ((a, b), (a, a)):
                got = kernel_matrix(spec, left, right)
                want = power_kernel_matrix(spec, left, right)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), spec

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

    def test_non_canonical_input_is_canonicalized(self):
        rng = np.random.default_rng(14)
        x = random_csr(rng, 12, 10, 0.5)
        # each stored value split into two exact halves, the entries of each row shuffled
        indices, data = [], []
        for r in range(12):
            lo, hi = x.indptr[r], x.indptr[r + 1]
            order = rng.permutation(2 * (hi - lo))
            indices.append(np.tile(x.indices[lo:hi], 2)[order])
            data.append(np.tile(x.data[lo:hi] / 2.0, 2)[order])
        messy = sparse.csr_matrix((np.concatenate(data), np.concatenate(indices), 2 * x.indptr), shape=x.shape)
        assert not messy.has_canonical_format
        spec = KernelSpec("polynomial", 2)
        ref = KernelCache(x, spec, 1e-3)
        cache = KernelCache(messy, spec, 1e-3)
        assert cache._gram is None
        assert_same_csr(cache._columns, x.tocsc())  # copied from the canonical matrix, so no duplicates
        assert KernelCache(messy, spec)._columns is None  # the full Gram matrix needs no column copy
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


@st.composite
def raw_problems(draw):
    """Problems in CSR form as a caller may pass it.

    Rows hold unsorted and duplicate column indices, negative values and
    explicit stored zeros; some rows are empty, the last column always is,
    and repeated rows give tied gains and pairs with eta <= 0.
    """
    m = draw(st.integers(4, 24))
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(m):
        size = 0 if rng.random() < 0.15 else int(rng.integers(1, n + 3))
        values = rng.normal(size=size) * 2.3
        values[rng.random(size) < 0.15] = 0.0
        rows.append((rng.integers(0, n, size=size), values))
    rows += [rows[t] for t in rng.integers(0, m, size=draw(st.integers(0, m)))]
    indptr = np.cumsum([0] + [cols.size for cols, _ in rows])
    x = sparse.csr_matrix(
        (np.concatenate([v for _, v in rows]), np.concatenate([cols for cols, _ in rows]), indptr),
        shape=(len(rows), n + 1),
    )
    y = np.where(rng.random(x.shape[0]) < draw(st.sampled_from([0.1, 0.5, 0.9])), 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    c = draw(st.sampled_from([0.01, 0.7, 5.0]))
    return x, y, c, draw(st.sampled_from(SPECS)), draw(st.sampled_from([1e-3, 1e-6]))


class TestFullScanReference:
    """The solver and its LRU rows equal the full-scan reference and the dense row product bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(raw_problems())
    def test_equals_the_reference(self, problem):
        x, y, c, spec, tol = problem
        # a few problems (no shrinking, large C) need 10^4-10^5 steps; both sides stop at the same cap
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(svm, "_MAX_STEPS", 2_000)
            ref, converged = full_scan_smo(x, y, c, spec, tol)
            for cache_mb in (100.0, 1e-4):
                cache = KernelCache(x, spec, cache_mb)
                assert (cache._gram is None) == (cache_mb < 1.0)
                solver = _Smo(x, y, c, spec, tol, cache)
                assert solver.solve() == converged
                assert solver.alpha.tobytes() == ref.alpha.tobytes()
                assert solver.errors.tobytes() == ref.errors.tobytes()
                assert repr(solver.final_intercept()) == repr(ref.final_intercept())
                assert solver.steps == ref.steps
        assert cache._capacity < cache.m  # the LRU cache evicted
        for i in range(cache.m):
            assert cache.row(i).tobytes() == dense_kernel_row(ref.cache, i).tobytes()


def _solve_kkt(x, y, c, spec, tol=1e-3, cache_mb=100.0):
    """Solve on the full Gram matrix and on an LRU cache of ``cache_mb``; both must pass the KKT oracle."""
    full = smo_train(x, y, c, spec, tol, KernelCache(x, spec))
    lru = smo_train(x, y, c, spec, tol, KernelCache(x, spec, cache_mb))
    assert full.converged
    assert kkt_problems(full, c, tol) == []
    assert lru.alpha.tobytes() == full.alpha.tobytes()
    assert repr(lru.b) == repr(full.b)
    assert lru.steps == full.steps
    return full


@st.composite
def dual_problems(draw):
    m = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = random_csr(rng, m, draw(st.integers(1, 12)), draw(st.sampled_from([0.2, 0.5, 1.0])))
    if draw(st.booleans()):  # repeated rows give pairs with eta = 0
        x = sparse.vstack([x, x[: m // 2 + 1]], format="csr")
    y = np.where(rng.random(x.shape[0]) < draw(st.sampled_from([0.1, 0.5, 0.9])), 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    c = draw(st.sampled_from([0.01, 0.7, 5.0]))
    return x, y, c, draw(st.sampled_from(SPECS)), draw(st.sampled_from([1e-3, 1e-6]))


class TestSecondOrderSolver:
    """Every solution passes the independent KKT oracle, bit for bit the same under either cache."""

    @settings(max_examples=100, deadline=None)
    @given(dual_problems())
    def test_random_problems_meet_kkt(self, problem):
        x, y, c, spec, tol = problem
        _solve_kkt(x, y, c, spec, tol, cache_mb=1e-4)

    def test_a_step_rounded_next_to_a_bound_lands_on_it(self):
        # Linear 4 x 1 problems on which a step once left a multiplier an ulp
        # below C (0.6999999999999998) or a few ulps above 0 (4.2e-17): counted
        # bound by ``final_intercept`` and free by the oracle, the intercept missed.
        for column, y in (
            ((0.0, 2.6551709798102787, -3.1063660122813155, -5.4736746199331145), (1.0, -1.0, 1.0, -1.0)),
            ((0.0, -5.180072228984445, -4.608017314525421, -1.3471922974756396), (1.0, -1.0, 1.0, 1.0)),
        ):
            x = sparse.csr_matrix(np.array(column)[:, None])
            solution = _solve_kkt(x, np.array(y), 0.7, KernelSpec("linear"), cache_mb=1e-4)
            assert set(solution.alpha.tolist()) <= {0.0, 0.7}

    def test_random_problems(self):
        rng = np.random.default_rng(30)
        for trial in range(12):
            m = int(rng.integers(15, 60))
            x = random_csr(rng, m, 8, 0.5)
            y = np.where(rng.integers(0, 2, size=m) == 1, 1.0, -1.0)
            y[:2] = (1.0, -1.0)
            c = (0.1, 0.7, 5.0)[trial % 3]
            assert _solve_kkt(x, y, c, SPECS[trial % len(SPECS)]).steps > 0

    def test_duplicate_rows_take_the_tau_curvature(self):
        rng = np.random.default_rng(31)
        for spec in SPECS:
            base = random_csr(rng, 12, 6, 0.6)
            x = sparse.vstack([base, base, base[:5]], format="csr")
            y = np.where(rng.integers(0, 2, size=x.shape[0]) == 1, 1.0, -1.0)
            y[:2] = (1.0, -1.0)
            cache = KernelCache(x, spec)
            assert cache.diagonal[0] + cache.diagonal[12] - 2.0 * cache.row(0)[12] <= 0.0  # row 12 repeats row 0
            _solve_kkt(x, y, 0.7, spec)

    def test_every_multiplier_ends_at_a_bound(self):
        rng = np.random.default_rng(32)
        for spec in SPECS:
            base = random_csr(rng, 10, 5, 0.7)
            x = sparse.vstack([base, base], format="csr")
            y = np.concatenate([np.ones(10), -np.ones(10)])  # each point twice, with both labels
            sol = _solve_kkt(x, y, 0.7, spec)
            assert np.all((sol.alpha == 0.0) | (sol.alpha == 0.7))

    def test_lru_cache_with_evictions(self):
        rng = np.random.default_rng(34)
        x = random_csr(rng, 40, 10, 0.4)
        y = np.where(rng.integers(0, 2, size=40) == 1, 1.0, -1.0)
        y[:2] = (1.0, -1.0)
        for spec in SPECS:
            cache = KernelCache(x, spec, cache_mb=1e-3)
            assert cache._gram is None and cache._capacity < cache.m
            _solve_kkt(x, y, 0.7, spec, cache_mb=1e-3)

    def test_a_clipped_multiplier_lands_on_its_bound(self):
        # 0.001 + (0.01 - 0.001) rounds to above 0.01: only setting the bound keeps alpha in the box
        x = csr([[1.0], [-1.0]])
        y = np.array([1.0, -1.0])
        spec = KernelSpec("linear")
        solver = _Smo(x, y, 0.01, spec, 1e-3, None)
        solver.alpha[:] = 0.001
        solver.errors[:] = kernel_matrix(spec, x, x) @ (solver.alpha * y) - y
        assert solver.solve()
        assert solver.steps == 1
        assert solver.alpha.tolist() == [0.01, 0.01]

    def test_intercept_without_interior_points_or_one_side(self):
        x = csr([[1.0], [2.0], [3.0]])
        y = np.array([1.0, -1.0, -1.0])
        solver = _Smo(x, y, 0.7, KernelSpec("linear"), 1e-3, None)
        solver.errors[:] = (-0.5, 0.25, 2.0)  # g = 0.5, -0.25, -2.0
        solver.alpha[:] = (0.7, 0.7, 0.0)  # lower side: g of the negative at C; upper side: the rest
        assert solver.final_intercept() == (-0.25 + -2.0) / 2.0
        solver.alpha[:] = (0.0, 0.7, 0.7)  # every point on the lower side
        assert solver.final_intercept() == 0.5
        solver.alpha[:] = (0.7, 0.0, 0.0)  # every point on the upper side
        assert solver.final_intercept() == -2.0


class TestFormerlyCycling:
    """Problems on which Platt's SMO cycled to its step cap now converge well inside it."""

    @pytest.fixture(autouse=True)
    def _cap(self, monkeypatch, caplog):
        monkeypatch.setattr(svm, "_MAX_STEPS", 20_000)
        yield
        assert "step cap" not in caplog.text

    def _check(self, x, labels, cls, cache=None):
        p = SvmParams()
        y = np.where(np.asarray(labels) == cls, 1.0, -1.0)
        sol = smo_train(x, y, p.c, p.kernel, p.tol, cache)
        assert sol.converged
        assert 0 < sol.steps < 20_000
        assert kkt_problems(sol, p.c, p.tol) == []
        return sol

    @pytest.mark.parametrize(("seed", "fold", "cls"), [(2, 1, "has_finding"), (7, 9, "negation_modifies")])
    def test_default_corpus_fold(self, corpus40, seed, fold, cls):
        data = prepare_folds(corpus40, FeatureConfig(), seed=seed)[fold]
        self._check(data.x_train, data.train_labels, cls)

    def test_lru_path_of_160_documents(self):
        features = corpus_features(generate_synthetic(GeneratorConfig(n_docs=160, seed=100_000)), FeatureConfig())
        labels = [inst.label.value for found in features.instances.values() for inst in found]
        p = SvmParams()
        cache = KernelCache(features.x, p.kernel, p.cache_mb)
        assert cache._gram is None
        computed = []
        row = cache.row

        def counted(i):
            if i not in cache._rows:
                computed.append(i)
            return row(i)

        cache.row = counted
        sol = self._check(features.x, labels, "negation_modifies", cache)
        assert (sol.steps, len(computed)) == (330, 213)


class TestRowFetches:
    """SMO fetches two kernel rows per step, and none to find that it has converged."""

    def _counting(self, monkeypatch):
        calls = []
        original = KernelCache.row

        def counted(cache, i):
            calls.append(i)
            return original(cache, i)

        monkeypatch.setattr(KernelCache, "row", counted)
        return calls

    def test_rows_fetched_are_two_per_step(self, monkeypatch):
        # random labels: a few dozen steps, each fetching row i, then row j
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

    def test_cache_of_another_training_set(self):
        x = csr([[1.0], [2.0], [3.0]])
        y = np.array([1.0, -1.0, 1.0])
        spec = KernelSpec("linear")
        for other in (x[:2], sparse.vstack([x, x], format="csr")):
            with pytest.raises(ValueError, match="kernel cache"):
                smo_train(x, y, kernel=spec, cache=KernelCache(other, spec))


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
            steps=0,
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
