import numpy as np
import pytest
from _oracles import row_paum_train
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from clinrel.learners import PaumParams, multiclass, ova_train, paum, paum_decision, paum_train


def csr(rows):
    return sparse.csr_matrix(np.asarray(rows, dtype=np.float64))


def test_hand_trace_two_points():
    # x=+1 at +1, x=-1 at -1, both margins 1; R^2=1
    # pass 1: each example updates once -> w=2, b=0; pass 2 is clean
    x = csr([[1.0], [-1.0]])
    y = np.array([1.0, -1.0])
    hp = PaumParams(tau_pos=1.0, tau_neg=1.0, eta=1.0, opt_b=0.0, max_epochs=100)
    model = paum_train(x, y, hp)
    assert model.weights.tolist() == [2.0]
    assert model.bias == 0.0
    assert model.converged
    assert model.epochs == 2


def test_hand_trace_single_point_default_margins():
    # default tau_pos=20; x=3 so R^2=9 and each update adds 18 to the score
    x = csr([[3.0]])
    y = np.array([1.0])
    model = paum_train(x, y)
    assert model.weights.tolist() == [6.0]
    assert model.bias == 18.0
    assert model.converged
    assert model.epochs == 3
    assert paum_decision(model, x)[0] == pytest.approx(36.0)


def test_first_example_always_updates():
    # zero initial weights give margin 0 <= tau, so training always moves
    x = csr([[5.0, -2.0]])
    y = np.array([-1.0])
    model = paum_train(x, y, PaumParams(tau_pos=0.1, tau_neg=0.1))
    assert np.any(model.weights != 0.0)


def _separable_problem(rng, m=20, n=3, gap=0.25):
    w_star = rng.normal(size=n)
    w_star /= np.linalg.norm(w_star)
    xs, ys = [], []
    while len(xs) < m:
        point = rng.uniform(-1.0, 1.0, size=n)
        margin = float(point @ w_star)
        if abs(margin) >= gap:
            xs.append(point)
            ys.append(1.0 if margin > 0 else -1.0)
    return np.array(xs), np.array(ys)


def test_separable_problems_terminate_with_required_margins():
    hp = PaumParams(tau_pos=1.0, tau_neg=0.5, eta=1.0, opt_b=0.0, max_epochs=1000)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x, y = _separable_problem(rng)
        model = paum_train(csr(x), y, hp)
        assert model.converged, seed
        scores = paum_decision(model, csr(x))
        for yi, si in zip(y, scores):
            required = hp.tau_pos if yi > 0 else hp.tau_neg
            assert yi * si > required, seed


def test_positive_margin_exceeds_negative_requirement():
    # asymmetric taus push the boundary away from the positive class
    rng = np.random.default_rng(123)
    x, y = _separable_problem(rng, m=30)
    hp = PaumParams(tau_pos=10.0, tau_neg=1.0, max_epochs=5000)
    model = paum_train(csr(x), y, hp)
    assert model.converged
    scores = paum_decision(model, csr(x))
    pos = scores[y > 0]
    neg = scores[y < 0]
    assert pos.min() > 10.0
    assert (-neg).min() > 1.0


def test_non_separable_hits_epoch_cap(caplog):
    x = csr([[1.0], [1.0]])
    y = np.array([1.0, -1.0])
    model = paum_train(x, y, PaumParams(max_epochs=10))
    assert not model.converged
    assert model.epochs == 10
    assert "PAUM stopped at the epoch cap (10)" in caplog.text


def test_bias_feature_trace():
    # opt_b=1 adds an always-on unit feature trained alongside w
    x = csr([[1.0]])
    y = np.array([1.0])
    hp = PaumParams(tau_pos=0.5, tau_neg=0.5, eta=1.0, opt_b=1.0, max_epochs=100)
    model = paum_train(x, y, hp)
    assert model.weights.tolist() == [1.0]
    assert model.bias_feature == 1.0
    assert model.bias == 1.0
    assert paum_decision(model, csr([[2.0]]))[0] == pytest.approx(4.0)


def test_eta_scales_updates():
    x = csr([[1.0], [-1.0]])
    y = np.array([1.0, -1.0])
    hp = PaumParams(tau_pos=1.0, tau_neg=1.0, eta=0.5, max_epochs=200)
    model = paum_train(x, y, hp)
    assert model.converged
    scores = paum_decision(model, x)
    assert scores[0] > 1.0
    assert scores[1] < -1.0


def test_input_validation():
    with pytest.raises(ValueError):
        paum_train(sparse.csr_matrix((0, 2)), np.array([]))
    with pytest.raises(ValueError):
        paum_train(csr([[1.0]]), np.array([0.5]))
    with pytest.raises(ValueError):
        paum_train(csr([[1.0]]), np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        PaumParams(eta=0.0)
    with pytest.raises(ValueError):
        PaumParams(max_epochs=0)


def assert_same_model(got, expected):
    assert got.weights.tobytes() == expected.weights.tobytes()
    assert np.float64(got.bias).tobytes() == np.float64(expected.bias).tobytes()
    assert np.float64(got.bias_feature).tobytes() == np.float64(expected.bias_feature).tobytes()
    assert (got.opt_b, got.epochs, got.converged) == (expected.opt_b, expected.epochs, expected.converged)


BLOCK = paum._BLOCK_ROWS
# fewer rows than one block, exactly one or two blocks, and counts in between
ROW_COUNTS = (1, 2, 5, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 3, 3 * BLOCK - 7)


@st.composite
def problems(draw):
    m = draw(st.sampled_from(ROW_COUNTS))
    # BLAS sums rows of more than a few entries in another order than the
    # CSR product, so long rows make the two scores differ in the last bits
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    kind = draw(st.sampled_from(["binary", "integer", "real"]))
    if kind == "binary":
        values = np.ones((m, n))
    elif kind == "integer":
        values = rng.integers(-3, 4, size=(m, n)).astype(np.float64)
    else:
        values = rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 1e3])), size=(m, n))
    x = sparse.csr_matrix(np.where(rng.random((m, n)) < density, values, 0.0))
    y = rng.choice([-1.0, 1.0], size=m)
    # tenths: with 0/1 features and a step of 0.1, margins meet a tau of
    # 0.1 k up to the rounding of the sum, where the band must decide
    taus = [0.0, 0.5, 1.0, 2.0, 20.0, 0.3, 0.7, 1.1]
    hp = PaumParams(
        tau_pos=draw(st.sampled_from(taus) | st.floats(-5.0, 50.0)),
        tau_neg=draw(st.sampled_from(taus) | st.floats(-5.0, 50.0)),
        eta=draw(st.sampled_from([1.0, 0.5, 0.1, 2.0]) | st.floats(1e-3, 10.0)),
        opt_b=draw(st.sampled_from([0.0, 1.0, 0.5, -2.0])),
        max_epochs=draw(st.integers(1, 30)),
    )
    return x, y, hp


@settings(max_examples=300, deadline=None)
@given(problems())
def test_block_scan_equals_row_by_row_training(problem):
    x, y, hp = problem
    assert_same_model(paum_train(x, y, hp), row_paum_train(x, y, hp))


@pytest.mark.parametrize("m", ROW_COUNTS)
def test_block_scan_equals_row_by_row_on_exact_ties(m):
    # 0/1 features: with a step of 1 or 0.5 every score is exact and many
    # margins land on tau; with a step of 0.1 they meet tau up to the rounding
    # of the sum, which the band must leave to the exact test
    rng = np.random.default_rng(m)
    dense = (rng.random((m, 40)) < 0.3).astype(np.float64)
    dense[rng.random(m) < 0.15] = 0.0
    x = sparse.csr_matrix(dense)
    y = rng.choice([-1.0, 1.0], size=m)
    for hp in (
        PaumParams(tau_pos=2.0, tau_neg=1.0, eta=0.5, opt_b=1.0),
        PaumParams(tau_pos=1.0, tau_neg=1.0, eta=1.0, opt_b=0.0, max_epochs=3),
        PaumParams(tau_pos=1.1, tau_neg=0.7, eta=0.1, opt_b=1.0),
    ):
        assert_same_model(paum_train(x, y, hp), row_paum_train(x, y, hp))


def test_block_settles_only_rows_clear_of_the_band():
    blk = csr([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    l1 = np.array([1.0, 1.0, 2.0, 0.0])
    w = np.array([3.0, 1.0])
    y = np.array([1.0, 1.0, -1.0, 1.0])
    tau = np.array([2.0, 1.0, 1.0, -1.0])
    # margins 1, 0 (a tie), -5 and 1
    assert paum._unclear(blk, l1, w, 3.0, 0.0, 0.0, y, tau).tolist() == [1, 2]
    # a huge weight bound widens the band past every margin but the empty
    # row's, whose score is the bias alone
    assert paum._unclear(blk, l1, w, 1e10, 0.0, 0.0, y, tau).tolist() == [0, 1, 2]
    # a non-finite margin or band sends the whole block to the exact test
    with np.errstate(invalid="ignore"):
        near = paum._unclear(blk, l1, np.array([np.inf, 1.0]), np.inf, 0.0, 0.0, y, tau)
    assert near.tolist() == [0, 1, 2, 3]
    near = paum._unclear(blk, l1, w, 3.0, 0.0, 0.0, y, np.array([-np.inf, 1.0, 1.0, -1.0]))
    assert near.tolist() == [0, 1, 2, 3]


def test_rows_too_long_for_the_band_get_an_infinite_norm(monkeypatch):
    monkeypatch.setattr(paum, "_BAND_MAX_ENTRIES", 2)
    rows = paum.paum_rows(csr([[1.0, 0.0, 0.0], [1.0, -2.0, 0.0], [1.0, 1.0, 1.0]]))
    ((lo, blk, l1),) = rows.blocks
    assert (lo, blk.shape) == (0, (3, 3))
    assert l1.tolist() == [1.0, np.inf, np.inf]
    assert rows.r_sq == 5.0


def test_one_vs_all_builds_the_row_set_up_once(monkeypatch):
    calls = []
    original = multiclass.paum_rows

    def counted(x):
        calls.append(x.shape)
        return original(x)

    monkeypatch.setattr(multiclass, "paum_rows", counted)
    x = csr([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    labels = ["a", "b", "c", "null"]
    ova = ova_train(x, labels, "paum")
    assert calls == [(4, 2)]
    for cls, model in zip(ova.classes, ova.models):
        y = np.where(np.array(labels) == cls, 1.0, -1.0)
        assert_same_model(model, row_paum_train(x, y, PaumParams()))
