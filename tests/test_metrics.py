import pytest
from hypothesis import given, strategies as st

from fedcard.metrics import bundle, clamp_positive, q_error, similarity_error
from fedcard.oracle import CardinalityTrace


def make_trace(tp_real, tp_est, join_real=(), join_est=()):
    return CardinalityTrace(
        query_id="q",
        engine="stub",
        plan=None,
        tp_real=tuple(float(v) for v in tp_real),
        tp_est=tuple(float(v) for v in tp_est),
        join_real=tuple(float(v) for v in join_real),
        join_est=tuple(float(v) for v in join_est),
    )


# ------------------------------------------------------------ q-error


def test_q_error_single_entry():
    assert q_error([100.0], [90.0]) == pytest.approx(1.1111, abs=1e-3)


def test_q_error_worked_vector():
    assert q_error([100.0, 200.0, 300.0], [90.0, 250.0, 300.0]) == pytest.approx(1.25)


def test_q_error_outlier_contrast():
    assert q_error([10.0, 10.0, 1.0], [10.0, 10.0, 100.0]) == 100.0


def test_q_error_identity():
    assert q_error([3.0, 7.0, 11.0], [3.0, 7.0, 11.0]) == 1.0


def test_q_error_length_mismatch():
    with pytest.raises(ValueError):
        q_error([1.0, 2.0], [1.0])


def test_q_error_nonfinite_rejected():
    with pytest.raises(ValueError):
        q_error([1.0, float("inf")], [1.0, 2.0])


def test_q_error_requires_positive():
    with pytest.raises(ValueError):
        q_error([0.0], [1.0])


# ------------------------------------------------------------ similarity error


def test_similarity_error_worked_tp_vector():
    assert similarity_error([100, 200, 300], [90, 250, 300]) == pytest.approx(0.0658, abs=5e-4)


def test_similarity_error_worked_plan_vector():
    r = [100, 200, 300, 50, 50]
    e = [90, 250, 300, 65, 150]
    assert similarity_error(r, e) == pytest.approx(0.1391, abs=5e-4)


def test_similarity_error_outlier_contrast():
    assert similarity_error([10, 10, 1], [10, 10, 100]) == pytest.approx(0.8596, abs=5e-3)


def test_similarity_error_identity():
    assert similarity_error([5, 6], [5, 6]) == 0.0


def test_similarity_error_all_zero():
    assert similarity_error([0.0, 0.0], [0.0, 0.0]) == 0.0


def test_engine2_tp_error_follows_the_formula():
    # Definitional value for r=(100,200,300), e=(200,500,600). A printed
    # account of this example rounds differently (0.388); the norm-ratio
    # formula itself gives ~0.369 and that is what this library computes.
    assert similarity_error([100, 200, 300], [200, 500, 600]) == pytest.approx(0.369, abs=1e-3)


# ------------------------------------------------------------ properties

positive_vectors = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=n, max_size=n),
        st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=n, max_size=n),
    )
)


@given(positive_vectors)
def test_symmetry(pair):
    r, e = pair
    assert q_error(r, e) == pytest.approx(q_error(e, r))
    assert similarity_error(r, e) == pytest.approx(similarity_error(e, r))


@given(positive_vectors)
def test_bounds(pair):
    r, e = pair
    assert q_error(r, e) >= 1.0
    assert 0.0 <= similarity_error(r, e) < 1.0


@given(positive_vectors, st.floats(min_value=0.01, max_value=1000.0))
def test_scale_covariance(pair, c):
    r, e = pair
    scaled_r = [c * v for v in r]
    scaled_e = [c * v for v in e]
    assert similarity_error(scaled_r, scaled_e) == pytest.approx(similarity_error(r, e), rel=1e-9)
    assert q_error(scaled_r, scaled_e) == pytest.approx(q_error(r, e), rel=1e-9)


def test_single_outlier_sensitivity():
    r = [10.0] * 5
    e = list(r)
    e[2] = r[2] * 1000.0
    assert q_error(r, e) >= 1000.0
    assert similarity_error(r, e) < 1.0


# ------------------------------------------------------------ bundle


def test_bundle_fig_engine1():
    trace = make_trace([100, 200, 300], [90, 250, 300], [50, 50], [65, 150])
    m = bundle(trace)
    assert m.e_tp == pytest.approx(0.0658, abs=5e-4)
    assert m.e_plan == pytest.approx(0.1391, abs=5e-4)
    assert m.q_tp == pytest.approx(1.25)
    assert m.q_plan == pytest.approx(3.0)
    assert m.q_join == pytest.approx(3.0)


def test_bundle_perfect_estimates():
    trace = make_trace([4, 5], [4, 5], [3], [3])
    m = bundle(trace)
    assert (m.q_tp, m.q_join, m.q_plan) == (1.0, 1.0, 1.0)
    assert (m.e_tp, m.e_join, m.e_plan) == (0.0, 0.0, 0.0)


def test_bundle_single_pattern_no_joins():
    trace = make_trace([7], [14])
    m = bundle(trace)
    assert m.q_tp == 2.0
    assert m.q_plan == 2.0
    assert m.q_join == 1.0
    assert m.e_join == 0.0


def test_bundle_clamps_zeros_and_reports_them():
    trace = make_trace([0, 10], [5, 10])
    m = bundle(trace)
    assert m.q_tp == 5.0  # 0 clamped to 1, ratio 5/1
    assert m.e_tp == similarity_error([0, 10], [5, 10])  # unclamped


def test_bundle_q_plan_dominates():
    trace = make_trace([10, 20], [20, 20], [5], [50])
    m = bundle(trace)
    assert m.q_plan >= max(m.q_tp, m.q_join)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=6),
    st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=0, max_size=4),
    st.randoms(use_true_random=False),
)
def test_bundle_q_plan_inequality_random(tp_real, join_real, rnd):
    tp_est = [v * rnd.uniform(0.1, 10.0) for v in tp_real]
    join_est = [v * rnd.uniform(0.1, 10.0) for v in join_real]
    m = bundle(make_trace(tp_real, tp_est, join_real, join_est))
    assert m.q_plan >= max(m.q_tp, m.q_join) - 1e-12
    assert m.q_tp >= 1.0 and m.q_join >= 1.0
    assert 0.0 <= m.e_tp <= 1.0 and 0.0 <= m.e_join <= 1.0 and 0.0 <= m.e_plan <= 1.0


def test_clamp_positive():
    vector, clamped = clamp_positive([0.0, 0.5, 1.0, 7.0])
    assert vector == (1.0, 1.0, 1.0, 7.0)
    assert clamped == (0, 1)
