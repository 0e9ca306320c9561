import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsid.polybasis import (MonomialPlan, PolyMap, enumerate_monomials, eval_monomials,
                             eval_polymap, jacobian_polymap, monomial_count,
                             monomial_jacobian)


# Independent references: a recursive graded-lex enumerator and a power-table
# evaluator that multiplies ``x_j ** e_j`` variable by variable.

def _reference_exponents(n_vars, degree):
    if n_vars == 1:
        return [(degree,)]
    return [(first,) + rest for first in range(degree, -1, -1)
            for rest in _reference_exponents(n_vars - 1, degree - first)]


def _reference_values(exponents, x):
    exps = np.array(exponents)
    powers = x[:, :, None] ** np.arange(exps.max() + 1)   # (T, n_vars, degree + 1)
    vals = np.ones((len(x), len(exps)))
    for j in range(x.shape[1]):
        vals *= powers[:, j, exps[:, j]]
    return vals


def _reference_jacobian(exponents, x):
    exps = np.array(exponents)
    jac = np.zeros((len(x), len(exps), x.shape[1]))
    for j in range(x.shape[1]):
        lowered = exps.copy()
        lowered[:, j] = np.maximum(exps[:, j] - 1, 0)
        jac[:, :, j] = exps[:, j] * _reference_values(lowered, x)
    return jac


def test_degree_two_in_two_vars():
    basis = enumerate_monomials(2, 2, 2)
    assert [tuple(e) for e in basis.exponents] == [(2, 0), (1, 1), (0, 2)]
    assert len(basis) == 3


def test_count_five_vars_degree_one_to_three():
    # binomial-sum oracle: C(5,1) + C(6,2) + C(7,3) = 5 + 15 + 35
    basis = enumerate_monomials(5, 1, 3)
    assert len(basis) == 55
    assert monomial_count(5, 1, 3) == 55


def test_constant_basis():
    basis = enumerate_monomials(3, 0, 0)
    assert [tuple(e) for e in basis.exponents] == [(0, 0, 0)]


def test_count_guard():
    with pytest.raises(ValueError, match="monomials"):
        enumerate_monomials(40, 0, 8)


def test_invalid_degree_range():
    with pytest.raises(ValueError):
        enumerate_monomials(2, 3, 2)
    with pytest.raises(ValueError):
        enumerate_monomials(2, -1, 2)


def test_ordering_graded_then_stable():
    basis = enumerate_monomials(2, 0, 3)
    degrees = [sum(e) for e in basis.exponents]
    assert degrees == sorted(degrees)
    # within a degree block the leading exponent descends
    block = [e for e in basis.exponents if sum(e) == 3]
    assert block == [(3, 0), (2, 1), (1, 2), (0, 3)]


@settings(max_examples=30, deadline=None)
@given(n_vars=st.integers(1, 4), d_min=st.integers(0, 3), extra=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1))
def test_plan_table_matches_eval_monomials(n_vars, d_min, extra, seed):
    basis = enumerate_monomials(n_vars, d_min, d_min + extra)
    plan = MonomialPlan(n_vars, basis.degree_max + 1)
    assert plan.size == monomial_count(n_vars, 0, max(basis.degree_max + 1, 1))
    z = np.random.default_rng(seed).normal(size=n_vars).tolist()
    table = [1.0, *z]
    for level in plan.levels:
        table += [table[p] * z[v] for p, v in level]
    got = np.array(table)[plan.positions(basis)]
    assert np.array_equal(got, eval_monomials(basis, np.array(z)))


def test_batch_table_equals_float_recurrence():
    # the simulation loops build each sample's monomials on Python floats;
    # the batch values behind the fit Jacobians must be the same numbers
    rng = np.random.default_rng(12)
    for n_vars in range(1, 6):
        for degree in range(1, 5):
            basis = enumerate_monomials(n_vars, 0, degree)
            plan = MonomialPlan(n_vars, degree)
            points = rng.uniform(-3.0, 3.0, (200, n_vars))
            rows = []
            for z in points.tolist():
                table = [1.0, *z]
                for level in plan.levels:
                    table += [table[p] * z[v] for p, v in level]
                rows.append(table)
            expected = np.array(rows)[:, plan.positions(basis)]
            assert np.array_equal(eval_monomials(basis, points), expected), (n_vars, degree)


def test_order_and_values_match_references():
    rng = np.random.default_rng(13)
    for n_vars in range(1, 5):
        for d_min in range(0, 4):
            for d_max in range(d_min, 4):
                basis = enumerate_monomials(n_vars, d_min, d_max)
                ref = [e for d in range(d_min, d_max + 1)
                       for e in _reference_exponents(n_vars, d)]
                assert list(basis.exponents) == ref
                x = rng.uniform(-1.5, 1.5, (40, n_vars))
                assert np.allclose(eval_monomials(basis, x), _reference_values(ref, x),
                                   rtol=1e-12, atol=1e-12)
                assert np.allclose(monomial_jacobian(basis, x), _reference_jacobian(ref, x),
                                   rtol=1e-12, atol=1e-12)


def test_plan_order_is_graded_lex():
    # by total degree, then descending exponents from the first variable on;
    # every degree range is a slice of the full basis
    for n_vars in range(1, 7):
        for d_max in range(0, 6):
            exps = enumerate_monomials(n_vars, 0, d_max).exponents
            key = [(sum(e), tuple(-v for v in e)) for e in exps]
            assert key == sorted(set(key))
            assert len(exps) == monomial_count(n_vars, 0, d_max)
            for d_min in range(d_max + 1):
                assert enumerate_monomials(n_vars, d_min, d_max).exponents == tuple(
                    e for e in exps if sum(e) >= d_min)


def test_zero_coefficients_give_zero_output():
    p = PolyMap.zeros(2, 3, 0, 2)
    assert np.allclose(eval_polymap(p, np.array([1.0, -2.0, 0.5])), 0.0)


def test_eval_decoupling_example_value():
    # f1(1, 0) = 54 + 8 + 1 = 63 for the cubic with those three surviving terms
    basis = enumerate_monomials(2, 0, 3)
    coeffs = np.array([[1, 0, 8, 8, 16, 8, 54, -54, 18, -2]], dtype=float)
    f1 = PolyMap(basis, coeffs)
    assert eval_polymap(f1, np.array([1.0, 0.0]))[0] == pytest.approx(63.0)


def _naive_eval(p: PolyMap, x: np.ndarray) -> np.ndarray:
    out = np.zeros(p.n_outputs)
    for i in range(p.n_outputs):
        for c, e in zip(p.coefficients[i], p.basis.exponents):
            term = c
            for xv, ev in zip(x, e):
                term *= xv**ev
            out[i] += term
    return out


def test_eval_matches_naive_summation():
    rng = np.random.default_rng(7)
    basis = enumerate_monomials(3, 0, 4)
    p = PolyMap(basis, rng.normal(size=(2, len(basis))))
    for _ in range(100):
        x = rng.uniform(-2, 2, 3)
        assert np.allclose(eval_polymap(p, x), _naive_eval(p, x), atol=1e-12, rtol=1e-12)


def test_batch_eval_matches_single():
    rng = np.random.default_rng(3)
    basis = enumerate_monomials(2, 1, 3)
    p = PolyMap(basis, rng.normal(size=(3, len(basis))))
    pts = rng.uniform(-1, 1, (20, 2))
    batch = eval_polymap(p, pts)
    for i, x in enumerate(pts):
        assert np.allclose(batch[i], eval_polymap(p, x))


def test_linear_polymap_jacobian_is_coefficient_matrix():
    basis = enumerate_monomials(3, 1, 1)
    coeffs = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    p = PolyMap(basis, coeffs)
    for x in (np.zeros(3), np.array([1.0, -1.0, 2.0])):
        assert np.allclose(jacobian_polymap(p, x), coeffs)


def test_cubic_derivative_value():
    basis = enumerate_monomials(1, 3, 3)
    p = PolyMap(basis, np.array([[1.0]]))  # f(x) = x^3
    assert jacobian_polymap(p, np.array([2.0]))[0, 0] == pytest.approx(12.0)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    basis = enumerate_monomials(3, 0, 3)
    p = PolyMap(basis, rng.normal(size=(2, len(basis))))
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5, 3)
        jac = jacobian_polymap(p, x)
        fd = np.zeros_like(jac)
        for j in range(3):
            h = 1e-6 * max(1.0, abs(x[j]))
            xp = x.copy(); xp[j] += h
            xm = x.copy(); xm[j] -= h
            fd[:, j] = (eval_polymap(p, xp) - eval_polymap(p, xm)) / (2 * h)
        assert np.allclose(jac, fd, rtol=1e-5, atol=1e-7)


def test_serialization_round_trip_bit_exact():
    rng = np.random.default_rng(5)
    basis = enumerate_monomials(4, 0, 3)
    p = PolyMap(basis, rng.normal(size=(2, len(basis))))
    q = PolyMap.from_dict(p.to_dict())
    x = rng.uniform(-1, 1, (50, 4))
    assert np.array_equal(eval_polymap(p, x), eval_polymap(q, x))
    assert q.basis.exponents == p.basis.exponents


@given(n_vars=st.integers(1, 4), d_max=st.integers(0, 4))
@settings(max_examples=30, deadline=None)
def test_monomial_count_matches_enumeration(n_vars, d_max):
    basis = enumerate_monomials(n_vars, 0, d_max)
    assert len(basis) == monomial_count(n_vars, 0, d_max)
    assert len(set(basis.exponents)) == len(basis)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_eval_monomials_at_origin(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    basis = enumerate_monomials(n, 0, 3)
    vals = eval_monomials(basis, np.zeros(n))
    # only the constant monomial survives at the origin
    expected = np.array([1.0 if sum(e) == 0 else 0.0 for e in basis.exponents])
    assert np.array_equal(vals, expected)
