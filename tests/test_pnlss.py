import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

from nlsid import pnlss
from nlsid.bla import estimate_bla_spectral
from nlsid.decouple import DecoupledFunction, _initial_decoupling, eval_decoupled
from nlsid.polybasis import (MonomialPlan, PolyMap, enumerate_monomials, eval_monomials,
                             eval_polymap)
from nlsid.pnlss import (SENS_BLOCK, FitReport, PnlssModel, _state_sensitivities, _tf2ss,
                         fit_pnlss, fit_pnlss_decoupled, init_linear_from_bla, simulate_pnlss,
                         single_branch_init)
from nlsid.serialize import read_json
from nlsid.signals import (SignalRecord, design_multisine, flat_amplitude_spec,
                           full_grid, random_phases, tile_periods)
from nlsid.simulators import NoiseSpec, default_duffing, simulate_duffing, steady_state_record


def linear_model(a, b, c, d, n):
    return PnlssModel(a=a, b=b, c=c, d=d, e_map=None, f_map=None, x0=np.zeros(n))


def cubic_feedback_model(alpha=-0.05):
    """Two-state oscillator with a cubic term in the state update."""
    a = np.array([[1.55, -0.7], [1.0, 0.0]])
    b = np.array([0.5, 0.0])
    c = np.array([0.4, 0.1])
    basis = enumerate_monomials(3, 2, 3)
    coeffs = np.zeros((2, len(basis)))
    idx = [tuple(e) for e in basis.exponents].index((3, 0, 0))
    coeffs[0, idx] = alpha
    return PnlssModel(a=a, b=b, c=c, d=0.0,
                      e_map=PolyMap(basis, coeffs), f_map=None, x0=np.zeros(2))


def _linear_records(spec, b, a, n_real, p=2):
    recs = []
    n = spec.period_samples
    for m in range(n_real):
        u = tile_periods(design_multisine(random_phases(spec, m)), p + 1)
        y = sp_signal.lfilter(b, a, u)
        recs.append(SignalRecord(spec.sample_rate_hz, n, p, u[n:], y[n:]))
    return recs


def test_simulate_zero_everything():
    m = cubic_feedback_model()
    res = simulate_pnlss(m, np.zeros(64))
    assert not res.diverged
    assert np.allclose(res.y, 0.0)


def test_simulate_linear_matches_filter_oracle():
    b, a = sp_signal.butter(2, 0.2)
    a_m, b_m, c_m, d_m = sp_signal.tf2ss(b, a)
    model = linear_model(a_m, b_m.ravel(), c_m.ravel(), float(d_m.ravel()[0]), 2)
    u = np.random.default_rng(0).normal(size=300)
    res = simulate_pnlss(model, u)
    ref = sp_signal.lfilter(b, a, u)
    assert np.max(np.abs(res.y - ref)) < 1e-10


def test_simulate_divergence_status():
    m = PnlssModel(a=np.array([[1.5]]), b=[1.0], c=[1.0], d=0.0,
                   e_map=None, f_map=None, x0=[1.0])
    res = simulate_pnlss(m, np.zeros(200))
    assert res.diverged
    assert res.divergence_index is not None


def reference_simulate(model, u):
    """One numpy step at a time: the loop the scalar simulation must match."""
    u = np.asarray(u, dtype=float)
    n = model.state_dim
    x = model.x0.copy()
    xs = np.zeros((len(u), n))
    y = np.zeros(len(u))
    for t in range(len(u)):
        xs[t] = x
        z = np.append(x, u[t])
        yt = float(model.c @ x + model.d * u[t])
        if model.f_map is not None:
            yt += float(eval_monomials(model.f_map.basis, z) @ model.f_map.coefficients[0])
        y[t] = yt
        if not np.isfinite(yt) or abs(yt) > 1e6 or np.max(np.abs(x)) > 1e6:
            y[t:] = y[t - 1] if t > 0 else 0.0
            return y, xs, True, t
        x_new = model.a @ x + model.b * u[t]
        if isinstance(model.e_map, PolyMap):
            x_new = x_new + model.e_map.coefficients @ eval_monomials(model.e_map.basis, z)
        elif model.e_map is not None:
            x_new = x_new + eval_decoupled(model.e_map, z)
        x = x_new
    return y, xs, False, None


def assert_rel_close(got, ref, rtol=1e-12):
    """Equal non-finite entries; finite ones within rtol of the largest |ref|."""
    got, ref = np.asarray(got), np.asarray(ref)
    finite = np.isfinite(ref)
    assert np.array_equal(np.isfinite(got), finite)
    assert np.array_equal(got[~finite], ref[~finite], equal_nan=True)
    scale = np.max(np.abs(ref[finite]), initial=0.0)
    assert np.max(np.abs(got[finite] - ref[finite]), initial=0.0) <= rtol * scale


def assert_matches_reference(model, u):
    res = simulate_pnlss(model, u)
    y, xs, diverged, index = reference_simulate(model, u)
    assert (res.diverged, res.divergence_index) == (diverged, index)
    assert_rel_close(res.y, y)
    assert_rel_close(res.x_traj, xs)
    return res


def random_model(rng, n, e_kind, f_degree=None, e_degrees=(2, 3), branch_lengths=(3,)):
    """Stable linear part with a small E (PolyMap, decoupled or none) and F."""
    a = rng.normal(size=(n, n))
    a *= 0.8 / max(np.max(np.abs(np.linalg.eigvals(a))), 1e-12)
    e_map = None
    if e_kind == "poly":
        basis = enumerate_monomials(n + 1, *e_degrees)
        e_map = PolyMap(basis, 0.05 * rng.normal(size=(n, len(basis))))
    elif e_kind == "decoupled":
        r = len(branch_lengths)
        e_map = DecoupledFunction(0.5 * rng.normal(size=(n, r)), 0.5 * rng.normal(size=(n + 1, r)),
                                  tuple(0.05 * rng.normal(size=k) for k in branch_lengths))
    f_map = None
    if f_degree is not None:
        basis = enumerate_monomials(n + 1, 2, f_degree)
        f_map = PolyMap(basis, 0.05 * rng.normal(size=(1, len(basis))))
    return PnlssModel(a=a, b=rng.normal(size=n), c=rng.normal(size=n), d=rng.normal(),
                      e_map=e_map, f_map=f_map, x0=0.1 * rng.normal(size=n))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       e_kind=st.sampled_from(["none", "poly", "decoupled"]),
       e_degrees=st.sampled_from([(2, 2), (2, 3), (1, 3), (0, 2)]),
       f_degree=st.sampled_from([None, 2, 3]),
       branch_lengths=st.sampled_from([(3,), (4,), (2, 4), (6, 3), (1, 5)]),
       override_x0=st.booleans())
def test_simulate_matches_numpy_reference(seed, n, e_kind, e_degrees, f_degree,
                                          branch_lengths, override_x0):
    rng = np.random.default_rng(seed)
    model = random_model(rng, n, e_kind, f_degree, e_degrees, branch_lengths)
    # a small drive: trajectories that grow or wander chaotically amplify the
    # two loops' different summation order past the 1e-12 tolerance
    u = 0.2 * rng.normal(size=120)
    if override_x0:
        model = replace(model, x0=0.2 * rng.normal(size=n))
    assert_matches_reference(model, u)


def _spike(u, k, value):
    return np.where(np.arange(len(u)) == k, value, u)


DIVERGENCE_CASES = {
    # name: (model, u) that diverge at sample k, or soon after it for the
    # doubling state (its output stays zero, so only |x| can trip the check)
    "nan_input": lambda m, u, k: (m, _spike(u, k, np.nan)),
    "large_output": lambda m, u, k: (replace(m, d=1.0), _spike(u, k, 1e7)),
    "large_state": lambda m, u, k: (
        replace(m, a=(2.0 if k else 1.0) * np.eye(m.state_dim), c=np.zeros(m.state_dim),
                d=0.0, f_map=None, x0=np.full(m.state_dim, 1.0 if k else 2e6)),
        u),
}


@pytest.mark.parametrize("e_kind", ["none", "poly", "decoupled"])
@pytest.mark.parametrize("case", sorted(DIVERGENCE_CASES))
@pytest.mark.parametrize("k", [0, 37])
def test_simulate_divergence_matches_numpy_reference(e_kind, case, k):
    rng = np.random.default_rng(5)
    model = random_model(rng, 2, e_kind, f_degree=2 if e_kind == "poly" else None,
                         branch_lengths=(2, 4))
    u = 0.1 * rng.normal(size=80)
    assert not simulate_pnlss(model, u).diverged
    model, u = DIVERGENCE_CASES[case](model, u, k)
    res = assert_matches_reference(model, u)
    assert res.diverged
    if case == "large_state" and k:
        assert 0 < res.divergence_index < len(u)
    else:
        assert res.divergence_index == k


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       e_kind=st.sampled_from(["none", "poly", "decoupled"]),
       radius=st.floats(0.5, 1.6), gain=st.sampled_from([1.0, 20.0, 1e3]),
       level=st.sampled_from([0.1, 10.0, 1e4]),
       last_state=st.sampled_from([None, np.nan, np.inf, -1e7]),
       blind_output=st.booleans())
def test_simulate_reports_divergence_as_a_status(seed, n, e_kind, radius, gain, level,
                                                 last_state, blind_output):
    # The step tests the output and every state against the limit in
    # magnitude, a test that NaN and infinities fail as well.
    rng = np.random.default_rng(seed)
    model = random_model(rng, n, e_kind, f_degree=2)
    e_map = model.e_map
    if isinstance(e_map, PolyMap):
        e_map = PolyMap(e_map.basis, gain * e_map.coefficients)
    elif e_map is not None:
        e_map = replace(e_map, w=gain * e_map.w)
    c, x0 = model.c.copy(), model.x0.copy()
    if blind_output:
        c[-1] = 0.0
    if last_state is not None:
        x0[-1] = last_state
    model = replace(model, a=model.a * (radius / 0.8), c=c, e_map=e_map, x0=x0)
    u = level * rng.normal(size=60)
    res = simulate_pnlss(model, u)
    assert np.all(np.isfinite(res.y))
    if res.diverged:
        k = res.divergence_index
        assert 0 <= k < len(u)
        assert np.all(res.y[k:] == (res.y[k - 1] if k else 0.0))
    else:
        assert res.divergence_index is None
        assert np.max(np.abs(res.y)) <= 1e6
        assert np.all(np.isfinite(res.x_traj)) and np.max(np.abs(res.x_traj)) <= 1e6
    if last_state is not None:
        assert res.diverged and res.divergence_index == 0


def reference_simulate_pnlss(model, u):
    """The per-sample loop the generated step replaced.

    Each sample forms the whole table ``[1, z, monomials of z]`` (the branch
    outputs appended after the output), and the output and every state row
    sum over all of it, structural zeros included, left to right in an
    explicit loop (Python 3.12's ``sum`` of floats is compensated).  It
    flags divergence on a non-finite or large output or a large state.
    Returns ``(y, x_traj, diverged, index, finite)``, ``finite`` telling
    whether every table entry it formed was finite.
    """
    u = np.asarray(u, dtype=float)
    n = model.state_dim
    x = model.x0.tolist()
    e_map, f_map = model.e_map, model.f_map
    poly_degrees = [m.basis.degree_max for m in (e_map, f_map) if isinstance(m, PolyMap)]
    plan = MonomialPlan(n + 1, max(poly_degrees, default=1))
    decoupled = isinstance(e_map, DecoupledFunction)
    x_rows = np.zeros((n, plan.size + (e_map.r if decoupled else 0)))
    x_rows[:, 1 : n + 2] = np.column_stack([model.a, model.b])
    y_row = np.zeros(plan.size)
    y_row[1 : n + 2] = [*model.c, model.d]
    branches = []
    if isinstance(e_map, PolyMap):
        x_rows[:, plan.positions(e_map.basis)] += e_map.coefficients
    elif decoupled:
        x_rows[:, plan.size :] = e_map.w
        branches = [(v, c[::-1].tolist()) for v, c in zip(e_map.v.T.tolist(), e_map.branches)]
    if f_map is not None:
        y_row[plan.positions(f_map.basis)] += f_map.coefficients[0]
    x_rows, y_row = x_rows.tolist(), y_row.tolist()

    def dot(row, table):
        acc = 0.0
        for a, b in zip(row, table):
            acc = acc + a * b
        return acc

    ys, xs, finite = [], [], True
    diverged = False
    for ut in u.tolist():
        xs.append(x)
        z = [*x, ut]
        table = [1.0, *z]
        for level in plan.levels:
            table += [table[p] * z[v] for p, v in level]
        yt = dot(y_row, table)
        ys.append(yt)
        finite = finite and all(map(math.isfinite, table))
        if not math.isfinite(yt) or abs(yt) > 1e6 or max(map(abs, x)) > 1e6:
            diverged = True
            break
        for v, coeffs in branches:
            s = dot(v, z)
            g = 0.0
            for c in coeffs:
                g = g * s + c
            table.append(g)
        finite = finite and all(map(math.isfinite, table))
        x = [dot(row, table) for row in x_rows]
    y = np.zeros(len(u))
    x_traj = np.zeros((len(u), n))
    y[: len(ys)] = ys
    x_traj[: len(ys)] = np.array(xs).reshape(-1, n)
    if diverged:
        t = len(ys) - 1
        y[t:] = y[t - 1] if t > 0 else 0.0
        return y, x_traj, True, t, finite
    return y, x_traj, False, None, finite


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       e_kind=st.sampled_from(["none", "poly", "decoupled"]),
       e_degrees=st.sampled_from([(0, 2), (1, 3), (2, 2), (2, 3), (3, 3)]),
       branch_degrees=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       f_degree=st.sampled_from([None, 2, 3]),
       radius=st.sampled_from([0.8, 1.3]),
       override_x0=st.booleans(),
       bad_state=st.none() | st.sampled_from([np.nan, np.inf, -1e7]))
def test_simulate_is_the_reference_loop_bit_for_bit(seed, n, e_kind, e_degrees, branch_degrees,
                                                   f_degree, radius, override_x0, bad_state):
    rng = np.random.default_rng(seed)
    model = random_model(rng, n, e_kind, f_degree, e_degrees,
                         tuple(d + 1 for d in branch_degrees))
    # radius 1.3 makes the linear part unstable, so many runs diverge
    model = replace(model, a=model.a * (radius / 0.8))
    u = rng.normal(size=100)
    if override_x0:
        model = replace(model, x0=0.2 * rng.normal(size=n))
    if bad_state is not None:
        start = model.x0.copy()
        start[rng.integers(n)] = bad_state
        model = replace(model, x0=start)
    res = simulate_pnlss(model, u)
    y, xs, diverged, index, finite = reference_simulate_pnlss(model, u)
    assert (res.diverged, res.divergence_index) == (diverged, index)
    assert np.array_equal(res.y, y, equal_nan=not finite)
    assert np.array_equal(res.x_traj, xs, equal_nan=not finite)


def test_simulate_sums_left_to_right():
    # v . z = 1e16 + 1 - 1e16 is 0 from left to right and 1 compensated
    v = np.array([[1e16], [1.0], [-1e16]])
    dec = DecoupledFunction(np.ones((2, 1)), v, (np.array([0.0, 1.0]),))
    model = PnlssModel(a=np.zeros((2, 2)), b=np.zeros(2), c=np.ones(2), d=0.0, e_map=dec,
                       f_map=None, x0=np.ones(2))
    u = np.array([1.0, 0.0, 0.0])
    res = simulate_pnlss(model, u)
    assert np.array_equal(res.x_traj[1], [0.0, 0.0])
    y, xs, diverged, index, finite = reference_simulate_pnlss(model, u)
    assert finite and not diverged and not res.diverged
    assert np.array_equal(res.y, y) and np.array_equal(res.x_traj, xs)


@pytest.mark.parametrize("e_kind", ["poly", "decoupled"])
def test_simulate_steps_on_python_floats(e_kind):
    # a numpy scalar in the step would warn on the overflow and the NaN
    # that follows; Python floats overflow to inf silently
    rng = np.random.default_rng(17)
    model = random_model(rng, 2, e_kind, f_degree=3, branch_lengths=(4, 6))
    u = _spike(0.1 * rng.normal(size=50), 20, 1e120)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = simulate_pnlss(model, u)
    assert res.diverged and res.divergence_index == 20


def test_simulate_ignores_an_overflowing_unused_monomial():
    # E uses the cubes only: u^2 overflows at sample 20 but no row reads it.
    # The old loop summed 0 * inf into the output and stopped at 20; the
    # step stops at 21, where B u has carried the state past the limit.
    basis = enumerate_monomials(2, 3, 3)
    model = PnlssModel(a=[[0.5]], b=[1.0], c=[1.0], d=0.0,
                       e_map=PolyMap(basis, np.full((1, len(basis)), 0.01)), f_map=None,
                       x0=[0.0])
    u = _spike(0.1 * np.ones(40), 20, 1e160)
    res = simulate_pnlss(model, u)
    assert res.diverged and res.divergence_index == 21
    assert abs(res.y[20]) < 1.0 and np.all(res.y[21:] == res.y[20])
    assert res.x_traj[21, 0] == np.inf
    assert reference_simulate_pnlss(model, u)[3] == 20


def test_simulate_compiles_rows_of_thousands_of_terms():
    # a single expression this long overflows the compiler's recursion limit
    rng = np.random.default_rng(19)
    basis = enumerate_monomials(3, 2, 24)
    assert len(basis) > 2900
    model = PnlssModel(a=[[0.5, 0.1], [-0.2, 0.3]], b=[1.0, 0.5], c=[1.0, 0.2], d=0.1,
                       e_map=PolyMap(basis, 1e-3 * rng.normal(size=(2, len(basis)))),
                       f_map=None, x0=[0.0, 0.0])
    u = 0.3 * rng.normal(size=20)
    res = simulate_pnlss(model, u)
    y, xs, diverged, _, finite = reference_simulate_pnlss(model, u)
    assert finite and not diverged and not res.diverged
    assert np.array_equal(res.y, y) and np.array_equal(res.x_traj, xs)


def reference_state_sensitivities(a, e_x, direct, x0_offset, n):
    """The plain sequential recursion the blocked one must agree with."""
    t_len, _, n_theta = direct.shape
    m_t = a[None, :, :] + e_x
    jx = np.zeros((t_len, n, n_theta))
    cur = np.zeros((n, n_theta))
    cur[:, x0_offset : x0_offset + n] = np.eye(n)
    for t in range(t_len):
        jx[t] = cur
        cur = m_t[t] @ cur + direct[t]
    return jx


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("t_len", [1, SENS_BLOCK - 1, SENS_BLOCK, SENS_BLOCK + 1, 2048])
def test_blocked_sensitivities_match_the_sequential_recursion(t_len, n):
    rng = np.random.default_rng(10 * n + t_len)
    a = rng.normal(size=(n, n))
    a *= 0.9 / np.max(np.abs(np.linalg.eigvals(a)))
    e_x = 0.05 * rng.normal(size=(t_len, n, n))
    # a stretch where A + E_x(t) has spectral radius 1.3: J grows there
    unstable = slice(t_len // 4, t_len // 4 + min(t_len, 60))
    e_x[unstable] += (1.3 / 0.9 - 1.0) * a
    n_theta = n * n + 2 * n + 1 + 7
    direct = rng.normal(size=(t_len, n, n_theta))
    ref = reference_state_sensitivities(a, e_x, direct, n_theta - n, n)
    got = _state_sensitivities(a, e_x, direct, n_theta - n, n)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_init_linear_from_bla_exact_second_order():
    spec = flat_amplitude_spec(256, 1.0, full_grid(256, 100), rms=1.0)
    b, a = (0.2, 0.1, 0.05), (1.0, -1.2, 0.5)
    recs = _linear_records(spec, b, a, 2)
    bla = estimate_bla_spectral(recs, spec)
    model, frf_rms = init_linear_from_bla(bla, 2)
    assert frf_rms < 1e-6
    omega = 2 * np.pi * bla.lines / 256
    z = np.exp(1j * omega)
    g_true = np.polyval(b[::-1], 1 / z) / np.polyval(a[::-1], 1 / z)
    assert np.max(np.abs(model.frf(omega) - g_true) / np.abs(g_true)) < 1e-6


def reference_frf(model: PnlssModel, omega: np.ndarray) -> np.ndarray:
    """One solve of ``(zI - A) x = B`` per line, then ``C x + D``."""
    z = np.exp(1j * np.asarray(omega, dtype=float))
    out = np.empty(len(z), dtype=complex)
    for i, zi in enumerate(z):
        x = np.linalg.solve(zi * np.eye(model.state_dim) - model.a, model.b)
        out[i] = model.c @ x + model.d
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 5), lines=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
def test_frf_is_the_per_line_solve_bit_for_bit(n, lines, seed):
    rng = np.random.default_rng(seed)
    model = PnlssModel(a=rng.normal(0.0, 0.4, size=(n, n)), b=rng.normal(size=n),
                       c=rng.normal(size=n), d=float(rng.normal()), e_map=None, f_map=None,
                       x0=np.zeros(n))
    omega = rng.uniform(0.0, np.pi, lines)
    got = model.frf(omega)
    assert got.dtype == complex and np.array_equal(got, reference_frf(model, omega))


def test_frf_solve_right_hand_side_has_the_matrix_rank(monkeypatch):
    # numpy < 2 reads b as stacked vectors when b.ndim == a.ndim - 1, so a
    # 1-D b or an (n, 1) column against (L, n, n) matrices raises there;
    # numpy 1 and 2 read b alike when it has the matrices' rank
    solve = np.linalg.solve
    shapes = []

    def checked_solve(a, b):
        shapes.append((np.shape(a), np.shape(b)))
        assert np.ndim(b) == np.ndim(a)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", checked_solve)
    model = linear_model(np.array([[0.5, 0.1], [0.0, 0.3]]), np.array([1.0, 0.5]),
                         np.array([0.2, 0.7]), 0.1, 2)
    omega = np.linspace(0.1, 3.0, 7)
    got = model.frf(omega)
    assert shapes == [((7, 2, 2), (1, 2, 1))]
    monkeypatch.undo()
    assert np.array_equal(got, reference_frf(model, omega))


def test_init_linear_overmodelled_extra_modes_cancel():
    spec = flat_amplitude_spec(256, 1.0, full_grid(256, 100), rms=1.0)
    b, a = (0.2, 0.1), (1.0, -0.5)  # true order 1
    recs = _linear_records(spec, b, a, 2)
    bla = estimate_bla_spectral(recs, spec)
    model, frf_rms = init_linear_from_bla(bla, 3)
    assert frf_rms < 1e-6
    import scipy.signal as ss
    num, den = ss.ss2tf(model.a, model.b[:, None], model.c[None, :], [[model.d]])
    poles = np.roots(den)
    zeros = np.roots(num[0])
    # every extra pole nearly cancels against a zero
    true_pole = 0.5
    extra = [p for p in poles if abs(p - true_pole) > 1e-4]
    assert len(extra) == 2
    for p in extra:
        assert np.min(np.abs(zeros - p)) < 1e-3


def scipy_tf2ss(num, den):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sp_signal.BadCoefficients)
        return sp_signal.tf2ss(num, den)


def assert_same_state_space(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == np.asarray(w, dtype=float).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(order=st.integers(0, 5), num_len=st.integers(1, 6),
       lead=st.sampled_from([None, 0.0, 1e-15, -1e-14, 2e-14]),
       den0=st.sampled_from([1.0, 2.0, -0.25, 7.5]), seed=st.integers(0, 2**32 - 1))
@example(order=2, num_len=3, lead=1e-15, den0=2.0, seed=0)  # dropped lead, den[0] != 1
def test_tf2ss_is_scipy_bit_for_bit(order, num_len, lead, den0, seed):
    rng = np.random.default_rng(seed)
    den = np.concatenate([[den0], rng.normal(size=order)])
    num = rng.normal(size=min(num_len, order + 1))
    if lead is not None:
        num[0] = lead
    assert_same_state_space(_tf2ss(num, den), scipy_tf2ss(num, den))


def test_init_linear_from_bla_is_the_scipy_path_on_criterion_5_bla(monkeypatch):
    # the criterion-5 acceptance fixture's BLA: four steady-state Duffing records
    fs, n = 512.0, 1024
    params = default_duffing(fs, hardening=0.1)
    spec = flat_amplitude_spec(n, fs, full_grid(n, 150), rms=0.1)
    recs = [steady_state_record(
        lambda u, fs: simulate_duffing(params, u, fs, NoiseSpec(measurement_std=3.2e-4, seed=m)),
        design_multisine(random_phases(spec, m)), fs, 2, 2) for m in range(4)]
    bla = estimate_bla_spectral(recs, spec)
    got, got_rms = init_linear_from_bla(bla, 2)
    monkeypatch.setattr(pnlss, "_tf2ss", scipy_tf2ss)
    want, want_rms = init_linear_from_bla(bla, 2)
    for name in ("a", "b", "c", "x0"):
        assert np.asarray(getattr(got, name)).tobytes() == np.asarray(getattr(want, name)).tobytes()
    assert got.d == want.d and got_rms == want_rms


def test_init_linear_needs_enough_lines():
    spec = flat_amplitude_spec(64, 1.0, (1, 3), rms=1.0)
    recs = _linear_records(spec, (0.5,), (1.0, -0.3), 1)
    bla = estimate_bla_spectral(recs, spec)
    with pytest.raises(ValueError, match="lines"):
        init_linear_from_bla(bla, 2)


def _fd_gradient(fun, theta, eps=1e-6):
    g = np.zeros_like(theta)
    for i in range(len(theta)):
        tp = theta.copy(); tp[i] += eps
        tm = theta.copy(); tm[i] -= eps
        g[i] = (fun(tp) - fun(tm)) / (2 * eps)
    return g


# E of each kind over (x1, x2, u); the r = 2 branches have unequal lengths,
# so the fit's parameter vector holds a zero-padded coefficient
E_MAPS = {
    "polymap": lambda basis: PolyMap(basis, np.zeros((2, len(basis)))),
    "decoupled_r1": lambda basis: DecoupledFunction(
        [[0.3], [-0.1]], [[0.8], [0.2], [0.4]], ([0.0, 0.0, -0.15, -0.05],)),
    "decoupled_r2": lambda basis: DecoupledFunction(
        [[0.3, 0.1], [-0.1, 0.2]], [[0.8, -0.3], [0.2, 0.5], [0.4, 0.1]],
        ([0.0, 0.0, -0.15, -0.05], [0.0, 0.1, 0.08])),
}


@pytest.mark.parametrize("f_kind", [None, "polymap"])
@pytest.mark.parametrize("e_kind", sorted(E_MAPS))
def test_analytic_gradient_matches_finite_differences(e_kind, f_kind):
    # small instance: n=2, degree 2, N=128, five random parameter points
    import nlsid.pnlss as P

    rng = np.random.default_rng(1)
    truth = cubic_feedback_model()
    u = rng.normal(0, 0.5, 128)
    y = simulate_pnlss(truth, u).y
    rec = SignalRecord(1.0, 128, 1, u, y)
    basis = enumerate_monomials(3, 2, 2)
    template = replace(truth, e_map=E_MAPS[e_kind](basis),
                       f_map=None if f_kind is None else PolyMap(basis, np.zeros((1, len(basis)))))
    lines = np.arange(1, 40)
    bins = lines * rec.num_periods
    y_f = np.fft.rfft(rec.output)[bins]

    def residual(th):
        m = P._unpack(th, template)
        sim = simulate_pnlss(m, u)
        r_c = y_f - np.fft.rfft(sim.y)[bins]
        return np.concatenate([r_c.real, r_c.imag])

    def cost(th):
        r = residual(th)
        return float(r @ r)

    theta0 = P._pack(template)
    for trial in range(5):
        theta = theta0 + 0.01 * rng.normal(size=len(theta0))
        m = P._unpack(theta, template)
        sim = simulate_pnlss(m, u)
        assert not sim.diverged
        j_c = -np.fft.rfft(P._output_jacobian(m, sim.x_traj, u), axis=0)[bins]
        j = np.concatenate([j_c.real, j_c.imag], axis=0)
        g_analytic = 2.0 * j.T @ residual(theta)
        g_fd = _fd_gradient(cost, theta)
        scale = np.maximum(np.abs(g_fd), 1e-6 * np.max(np.abs(g_fd)))
        assert np.max(np.abs(g_analytic - g_fd) / scale) < 1e-4


def test_fit_simulates_each_lm_point_once(monkeypatch):
    # the Jacobian at an accepted point and the report reuse that trial's
    # simulation: one run for the start and one per LM trial
    import nlsid.pnlss as P

    truth = cubic_feedback_model(alpha=-0.08)
    u = tile_periods(design_multisine(random_phases(
        flat_amplitude_spec(256, 1.0, full_grid(256, 60), rms=1.0), 7)), 1)
    rec = SignalRecord(1.0, 256, 1, u, simulate_pnlss(truth, u).y)
    points, residual_calls = [], []
    simulate, engine = P.simulate_pnlss, P.levenberg_marquardt

    def counted_simulate(model, inputs):
        points.append(P._pack(model).tobytes())
        return simulate(model, inputs)

    def counted_engine(residual, *args, **kwargs):
        def counted_residual(theta):
            residual_calls.append(1)
            return residual(theta)
        return engine(counted_residual, *args, **kwargs)

    monkeypatch.setattr(P, "simulate_pnlss", counted_simulate)
    monkeypatch.setattr(P, "levenberg_marquardt", counted_engine)
    fitted, report = fit_pnlss(replace(truth, e_map=None), rec, np.arange(1, 80),
                               state_degree=3, max_iterations=10)
    assert len(residual_calls) > len(report.cost_trajectory) > 1
    assert len(points) == len(residual_calls)
    assert len(set(points)) == len(points)
    assert P._pack(fitted).tobytes() in points
    y_fitted = simulate(fitted, u).y
    assert report.final_rms_time == float(np.sqrt(np.mean((rec.output - y_fitted) ** 2)))


def test_fit_self_consistency_from_perturbed_truth():
    rng = np.random.default_rng(2)
    truth = cubic_feedback_model()
    u = tile_periods(design_multisine(random_phases(
        flat_amplitude_spec(512, 1.0, full_grid(512, 120), rms=1.0), 3)), 1)
    y = simulate_pnlss(truth, u).y
    rec = SignalRecord(1.0, 512, 1, u, y)
    start = replace(
        truth,
        a=truth.a * (1 + 0.01 * rng.normal(size=(2, 2))),
        b=truth.b * (1 + 0.01 * rng.normal(size=2)),
        e_map=PolyMap(truth.e_map.basis,
                      truth.e_map.coefficients * (1 + 0.01 * rng.normal(size=truth.e_map.coefficients.shape))),
    )
    fitted, report = fit_pnlss(start, rec, np.arange(1, 200), state_degree=None)
    assert report.final_rms_time < 1e-6 * np.sqrt(np.mean(y**2))


def test_fit_linear_limit_matches_linear_solution():
    # E and F absent: the optimizer is pure linear refinement and must keep
    # the exact linear fit
    spec = flat_amplitude_spec(256, 1.0, full_grid(256, 100), rms=1.0)
    b, a = (0.3, 0.15), (1.0, -0.8)
    recs = _linear_records(spec, b, a, 2)
    bla = estimate_bla_spectral(recs, spec)
    lin, _ = init_linear_from_bla(bla, 2)
    fitted, report = fit_pnlss(lin, recs[0], spec.excited_lines, state_degree=None)
    omega = 2 * np.pi * np.asarray(spec.excited_lines) / 256
    assert np.max(np.abs(fitted.frf(omega) - lin.frf(omega))) < 1e-6
    assert report.final_rms_time < 1e-9


def test_fit_cost_trajectory_monotone_nonincreasing():
    truth = cubic_feedback_model(alpha=-0.08)
    u = tile_periods(design_multisine(random_phases(
        flat_amplitude_spec(256, 1.0, full_grid(256, 60), rms=1.0), 7)), 1)
    y = simulate_pnlss(truth, u).y + np.random.default_rng(3).normal(0, 1e-3, len(u))
    rec = SignalRecord(1.0, 256, 1, u, y)
    lin = replace(truth, e_map=None)
    fitted, report = fit_pnlss(lin, rec, np.arange(1, 80), state_degree=3,
                               max_iterations=40)
    assert np.all(np.diff(report.cost_trajectory) <= 0.0)
    assert report.cost_trajectory[-1] < report.cost_trajectory[0]


def test_fit_rejects_diverging_init():
    bad = PnlssModel(a=np.array([[2.0, 0.0], [0.0, 0.1]]), b=[1.0, 1.0],
                     c=[1.0, 0.0], d=0.0, e_map=None, f_map=None, x0=[1.0, 0.0])
    u = np.random.default_rng(4).normal(size=128)
    rec = SignalRecord(1.0, 128, 1, u, u)
    with pytest.raises(ValueError, match="diverg"):
        fit_pnlss(bad, rec, np.arange(1, 20), state_degree=2)


def test_serialization_round_trip_bit_exact_simulation():
    truth = cubic_feedback_model()
    back = PnlssModel.from_dict(truth.to_dict())
    u = np.random.default_rng(6).normal(0, 0.5, 200)
    assert np.array_equal(simulate_pnlss(truth, u).y, simulate_pnlss(back, u).y)


def test_serialization_round_trip_decoupled_state_map():
    rng = np.random.default_rng(7)
    dec = DecoupledFunction(rng.normal(size=(2, 1)), rng.normal(size=(3, 1)),
                            (np.array([0.0, 0.0, 0.1, 0.02]),))
    m = PnlssModel(a=np.array([[0.5, 0.1], [-0.1, 0.4]]), b=[1.0, 0.2],
                   c=[1.0, 0.0], d=0.0, e_map=dec, f_map=None, x0=[0.0, 0.0])
    back = PnlssModel.from_dict(m.to_dict())
    u = rng.normal(size=100)
    assert np.array_equal(simulate_pnlss(m, u).y, simulate_pnlss(back, u).y)
    assert isinstance(back.e_map, DecoupledFunction)


def test_fit_decoupled_self_consistency():
    rng = np.random.default_rng(8)
    dec = DecoupledFunction(np.array([[0.3], [-0.1]]), np.array([[0.8], [0.2], [0.4]]),
                            (np.array([0.0, 0.0, -0.15, -0.05]),))
    truth = PnlssModel(a=np.array([[1.2, -0.5], [1.0, 0.0]]), b=[0.4, 0.0],
                       c=[0.5, 0.1], d=0.0, e_map=dec, f_map=None, x0=[0.0, 0.0])
    u = tile_periods(design_multisine(random_phases(
        flat_amplitude_spec(256, 1.0, full_grid(256, 60), rms=1.0), 9)), 1)
    y = simulate_pnlss(truth, u).y
    rec = SignalRecord(1.0, 256, 1, u, y)
    start = replace(truth, e_map=DecoupledFunction(
        dec.w * 1.05, dec.v * 0.95, (dec.branches[0] * 1.1,)))
    fitted, report = fit_pnlss_decoupled(start, rec, np.arange(0, 128))
    assert report.final_rms_time < 1e-6 * np.sqrt(np.mean(y**2))
    assert np.all(np.diff(report.cost_trajectory) <= 0.0)


def test_fit_keeps_the_branch_constants_bit_for_bit():
    # a model file may carry nonzero branch constants; they are not free, so
    # the refit moves W, V and the higher coefficients around them
    dec = DecoupledFunction(np.array([[0.3, 0.05], [-0.1, 0.2]]),
                            np.array([[0.8, -0.3], [0.2, 0.5], [0.4, 0.1]]),
                            (np.array([0.013, 0.0, -0.15, -0.05]), np.array([-0.007, 0.02, 0.1])))
    truth = PnlssModel(a=np.array([[1.2, -0.5], [1.0, 0.0]]), b=[0.4, 0.0],
                       c=[0.5, 0.1], d=0.0, e_map=dec, f_map=None, x0=[0.0, 0.0])
    u = tile_periods(design_multisine(random_phases(
        flat_amplitude_spec(256, 1.0, full_grid(256, 60), rms=1.0), 9)), 1)
    rec = SignalRecord(1.0, 256, 1, u, simulate_pnlss(truth, u).y)
    start = replace(truth, e_map=DecoupledFunction(
        dec.w * 1.05, dec.v * 0.95, tuple(c * 1.1 for c in dec.branches)))
    fitted, report = fit_pnlss(start, rec, np.arange(1, 61), max_iterations=20)
    assert report.cost_trajectory[-1] < report.cost_trajectory[0]
    assert not np.array_equal(fitted.e_map.w, start.e_map.w)
    constants = [c[0] for c in fitted.e_map.branches]
    assert constants == [c[0] for c in start.e_map.branches]


def test_fit_decoupled_state_map_with_output_polynomial():
    rng = np.random.default_rng(13)
    dec = DecoupledFunction(np.array([[0.3], [-0.1]]), np.array([[0.8], [0.2], [0.4]]),
                            (np.array([0.0, 0.0, -0.15, -0.05]),))
    basis = enumerate_monomials(3, 2, 2)
    f_map = PolyMap(basis, 0.02 * rng.normal(size=(1, len(basis))))
    truth = PnlssModel(a=np.array([[1.2, -0.5], [1.0, 0.0]]), b=[0.4, 0.0],
                       c=[0.5, 0.1], d=0.0, e_map=dec, f_map=f_map, x0=[0.0, 0.0])
    u = tile_periods(design_multisine(random_phases(
        flat_amplitude_spec(256, 1.0, full_grid(256, 60), rms=1.0), 9)), 1)
    y = simulate_pnlss(truth, u).y
    rec = SignalRecord(1.0, 256, 1, u, y)
    start = replace(truth, e_map=DecoupledFunction(
        dec.w * 1.05, dec.v * 0.95, (dec.branches[0] * 1.1,)),
        f_map=PolyMap(basis, f_map.coefficients * 0.9))
    fitted, report = fit_pnlss(start, rec, np.arange(0, 128), state_degree=None)
    assert isinstance(fitted.e_map, DecoupledFunction) and fitted.f_map is not None
    assert report.final_rms_time < 1e-6 * np.sqrt(np.mean(y**2))


def test_fit_decoupled_requires_decoupled_map():
    truth = cubic_feedback_model()
    u = np.random.default_rng(10).normal(size=64)
    rec = SignalRecord(1.0, 64, 1, u, simulate_pnlss(truth, u).y)
    with pytest.raises(TypeError, match="Decoupled"):
        fit_pnlss_decoupled(truth, rec, np.arange(1, 10))


def test_single_branch_init_on_rank_one_truth():
    # when E really is one branch, the rank-1 start finds it
    dec = DecoupledFunction(np.array([[0.25], [-0.1]]),
                            np.array([[0.9], [0.1], [0.3]]),
                            (np.array([0.0, 0.0, -0.2, -0.08]),))
    from nlsid.decouple import to_polymap
    truth = PnlssModel(a=np.array([[1.2, -0.5], [1.0, 0.0]]), b=[0.4, 0.0],
                       c=[0.5, 0.1], d=0.0, e_map=to_polymap(dec), f_map=None,
                       x0=[0.0, 0.0])
    u = np.random.default_rng(11).normal(0, 0.8, 600)
    sim = simulate_pnlss(truth, u)
    assert not sim.diverged
    z = np.concatenate([sim.x_traj, u[:, None]], axis=1)
    init = single_branch_init(truth, z, branch_degree=3)
    sim_init = simulate_pnlss(init, u)
    rel = np.sqrt(np.mean((sim_init.y - sim.y) ** 2)) / np.sqrt(np.mean(sim.y**2))
    assert rel < 1e-4  # an initializer, not a fit: the refit polishes the rest


def test_single_branch_init_is_the_rank_one_start():
    # the criterion-5 model of the benchmark, on its training excitation
    path = Path(__file__).resolve().parents[1] / "bench" / "data" / "c5_model.json"
    model = PnlssModel.from_dict(read_json(path)["model"])
    spec = flat_amplitude_spec(1024, 512.0, full_grid(1024, 150), rms=0.1)
    u = tile_periods(design_multisine(random_phases(spec, 0)), 2)
    sim = simulate_pnlss(model, u)
    z = np.concatenate([sim.x_traj, u[:, None]], axis=1)
    init = single_branch_init(model, z, branch_degree=5)
    start, _ = _initial_decoupling(model.e_map, 1, 5, z, eval_polymap(model.e_map, z), 0)
    for field in ("a", "b", "c", "x0"):
        assert np.array_equal(getattr(init, field), getattr(model, field))
    assert np.array_equal(init.e_map.w, start.w) and np.array_equal(init.e_map.v, start.v)
    assert np.array_equal(init.e_map.branches[0], start.branches[0])
    assert init.e_map.branches[0][0] == 0.0 and len(init.e_map.branches[0]) == 6


def test_single_branch_init_needs_a_power_block():
    model = cubic_feedback_model()
    z = np.random.default_rng(2).normal(size=(50, 3))
    with pytest.raises(ValueError, match="branch_degree"):
        single_branch_init(model, z, branch_degree=1)


FS = 200.0


def test_cross_simulator_duffing_discretization_fit():
    # a fitted discrete cubic-feedback state-space reproduces the RK4-integrated
    # oscillator to better than 1% once the discretization is matched on data
    params = default_duffing(FS, hardening=0.1, oversample=16)
    spec = flat_amplitude_spec(512, FS, full_grid(512, 75), rms=0.1)

    def steady(seed):
        up = design_multisine(random_phases(spec, seed))
        return steady_state_record(lambda u, fs: simulate_duffing(params, u, fs),
                                   up, FS, 2, 3)

    recs = [steady(m) for m in range(2)]
    bla = estimate_bla_spectral(recs, spec)
    lin, _ = init_linear_from_bla(bla, 2)
    model, report = fit_pnlss(lin, recs[0], spec.excited_lines, state_degree=3)
    val = steady(7)
    sim = simulate_pnlss(model, val.input)
    second = slice(512, 1024)
    err = np.sqrt(np.mean((val.output[second] - sim.y[second]) ** 2))
    assert err <= 0.01 * np.sqrt(np.mean(val.output[second] ** 2))
