import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nlsid.decouple as D
from nlsid.decouple import (DecoupledFunction, canonicalize, cpd_als,
                            decouple_approx, decouple_exact, eval_decoupled,
                            to_polymap)
from nlsid.pnlss import PnlssModel, simulate_pnlss
from nlsid.polybasis import PolyMap, enumerate_monomials, eval_polymap


def worked_example_map() -> PolyMap:
    """Two coupled cubics known to admit an exact two-branch decomposition."""
    basis = enumerate_monomials(2, 0, 3)
    coeffs = np.array([
        [1, 0, 8, 8, 16, 8, 54, -54, 18, -2],
        [-3, -15, -19, -24, -48, -24, -27, 27, 1, 0],
    ], dtype=float)
    # column order: 1, p1, p2, p1^2, p1 p2, p2^2, p1^3, p1^2 p2, p1 p2^2, p2^3
    coeffs[1] = [-3, -15, -19, -24, -48, -24, -27, 27, -9, 1]
    return PolyMap(basis, coeffs)


def test_worked_example_values():
    f = worked_example_map()
    q = eval_polymap(f, np.array([1.0, 0.0]))
    assert q[0] == pytest.approx(63.0)
    assert q[1] == pytest.approx(-69.0)


def test_exact_decoupling_of_worked_example():
    f = worked_example_map()
    res = decouple_exact(f, r=2, num_points=300, seed=0)
    assert res.cpd_converged
    pts = np.random.default_rng(5).uniform(-1, 1, (1000, 2))
    err = np.max(np.abs(eval_polymap(f, pts) - eval_decoupled(res.function, pts)))
    assert err < 1e-8
    assert sorted(res.function.branch_degrees()) == [2, 3]


def test_exact_decoupling_structure_recovery():
    # the known W, V are recovered up to per-branch scaling and permutation
    f = worked_example_map()
    d = decouple_exact(f, r=2, num_points=300, seed=0).function
    w_ref = np.array([[1.0, 2.0], [-3.0, -1.0]])
    v_ref = np.array([[-2.0, 3.0], [-2.0, -1.0]])
    for i in range(2):
        w_dir = d.w[:, i] / np.linalg.norm(d.w[:, i])
        v_dir = d.v[:, i]
        matched = False
        for j in range(2):
            wr = w_ref[:, j] / np.linalg.norm(w_ref[:, j])
            vr = v_ref[:, j] / np.linalg.norm(v_ref[:, j])
            if (np.allclose(np.abs(w_dir @ wr), 1.0, atol=1e-6)
                    and np.allclose(np.abs(v_dir @ vr), 1.0, atol=1e-6)):
                matched = True
        assert matched


def test_single_branch_identity_structure():
    # f already of the form w g(v^T p)
    rng = np.random.default_rng(1)
    w = rng.normal(size=(2, 1))
    v = rng.normal(size=(3, 1))
    g = np.array([0.5, -1.0, 2.0, 0.7])
    truth = DecoupledFunction(w, v, (g,))
    f = to_polymap(truth)
    res = decouple_exact(f, r=1, num_points=200, seed=2)
    assert res.residual_max < 1e-10


def test_generate_then_recover_rank_three():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(2, 3))
    v = rng.normal(size=(4, 3))
    branches = tuple(rng.normal(size=4) for _ in range(3))
    f = to_polymap(DecoupledFunction(w, v, branches))
    res = decouple_exact(f, r=3, num_points=400, seed=4)
    assert res.residual_max < 1e-8


def test_branch_values_are_those_of_the_simulation_loop():
    # with A = B = 0 and W = I, each simulated state is the branch outputs at
    # the previous (x, u): the loop's left-to-right v . z and Horner pass
    rng = np.random.default_rng(21)
    v = rng.normal(0.0, 0.6, size=(3, 2))
    branches = (np.array([0.1, 0.5, -0.2, 0.05, -0.02, 0.01]), np.array([-0.2, 0.4, 0.1]))
    d = DecoupledFunction(np.eye(2), v, branches)
    model = PnlssModel(a=np.zeros((2, 2)), b=np.zeros(2), c=np.ones(2), d=0.0, e_map=d,
                       f_map=None, x0=np.zeros(2))
    u = rng.uniform(-1.0, 1.0, 4001)
    sim = simulate_pnlss(model, u)
    assert not sim.diverged
    z = np.concatenate([sim.x_traj, u[:, None]], axis=1)[:-1]
    assert np.array_equal(d.branch_values(z), sim.x_traj[1:])
    # and the per-sample loop itself, on points that are not a trajectory
    p = rng.uniform(-1.0, 1.0, (4000, 3))
    loop = []
    for point in p.tolist():
        row = []
        for vi, c in zip(v.T.tolist(), branches):
            s = 0.0  # left to right: Python 3.12's sum() of floats is compensated
            for a, b in zip(vi, point):
                s = s + a * b
            g = 0.0
            for cj in c[::-1].tolist():
                g = g * s + cj
            row.append(g)
        loop.append(row)
    assert np.array_equal(d.branch_values(p), np.array(loop))
    assert np.array_equal(eval_decoupled(d, p), d.branch_values(p) @ d.w.T)


def test_ragged_rows_are_one_zero_padded_matrix():
    rng = np.random.default_rng(31)
    w, v = rng.normal(0.0, 0.3, size=(2, 3)), rng.normal(0.0, 0.6, size=(3, 3))
    rows = (rng.normal(0.0, 0.3, size=6), rng.normal(0.0, 0.3, size=3), np.array([0.05]))
    padded = np.zeros((3, 6))
    for i, c in enumerate(rows):
        padded[i, : len(c)] = c
    ragged = DecoupledFunction(w, v, rows)
    for d in (ragged, DecoupledFunction.from_dict(ragged.to_dict())):
        assert d.branches.dtype == float and np.array_equal(d.branches, padded)
    explicit = DecoupledFunction(w, v, padded)
    u = rng.uniform(-1.0, 1.0, 400)
    spiked = u.copy()
    spiked[200] = np.inf
    for x0, inputs, stop in (([0.0, 0.0], u, None), ([np.nan, 0.0], u, 0),
                             ([0.0, 0.0], spiked, 200)):
        got, want = (simulate_pnlss(PnlssModel(a=np.array([[0.5, 0.1], [-0.2, 0.3]]),
                                               b=np.array([1.0, 0.0]), c=np.array([1.0, 0.5]),
                                               d=0.0, e_map=e, f_map=None, x0=np.array(x0)),
                                    inputs) for e in (ragged, explicit))
        assert got.y.tobytes() == want.y.tobytes()
        assert got.x_traj.tobytes() == want.x_traj.tobytes()
        assert got.divergence_index == want.divergence_index == stop
    # Horner's rule from a zero top coefficient keeps the short rows' values,
    # NaN and inf included
    p = rng.uniform(-1.0, 1.0, (50, 3))
    p[3, 0], p[7, 1], p[9, 2] = np.nan, np.inf, -np.inf
    loop = []
    for point in p.tolist():
        row = []
        for vi, c in zip(v.T.tolist(), rows):
            s = vi[0] * point[0] + vi[1] * point[1] + vi[2] * point[2]  # as _branch_inputs
            g = 0.0
            for cj in c[::-1].tolist():
                g = g * s + cj
            row.append(g)
        loop.append(row)
    with np.errstate(invalid="ignore"):
        g = ragged.branch_values(p)
    assert np.array_equal(g, np.array(loop), equal_nan=True)
    assert np.isnan(g[[3, 7, 9]]).all()


def test_branch_terms_are_the_powers_and_slopes():
    rng = np.random.default_rng(23)
    d = DecoupledFunction(rng.normal(size=(2, 3)), rng.normal(0.0, 0.6, size=(4, 3)),
                          (rng.normal(size=8), rng.normal(size=3), rng.normal(size=5)))
    p = rng.uniform(-1.5, 1.5, (3000, 4))
    powers, dg = d._branch_terms(p)
    x = d._branch_inputs(p)
    assert powers.shape == (3000, 3, 8)
    for j in range(8):
        np.testing.assert_allclose(powers[:, :, j], x**j, rtol=1e-14, atol=0.0)
    cf = d.branches
    slopes = sum(j * cf[:, j] * x ** (j - 1) for j in range(1, 8))
    np.testing.assert_allclose(dg, slopes, rtol=1e-12, atol=1e-12 * np.max(np.abs(slopes)))


def test_d_params_w_block_is_the_branch_values():
    rng = np.random.default_rng(22)
    d = DecoupledFunction(rng.normal(size=(3, 2)), rng.normal(0.0, 0.6, size=(4, 2)),
                          (rng.normal(size=6), rng.normal(size=3)))
    p = rng.uniform(-1.0, 1.0, (4000, 4))
    jac = d.d_params(p)
    for o in range(3):
        assert np.array_equal(jac[:, o, 2 * o : 2 * o + 2], d.branch_values(p))


def test_params_leave_out_the_branch_constants():
    rng = np.random.default_rng(24)
    d = DecoupledFunction(rng.normal(size=(2, 3)), rng.normal(0.0, 0.6, size=(4, 3)),
                          (rng.normal(size=6), rng.normal(size=3), rng.normal(size=5)))
    theta = d.params
    assert len(theta) == d.r * (2 + 4 + 5)
    moved = d.with_params(theta + 0.1)
    assert [c[0] for c in moved.branches] == [c[0] for c in d.branches]
    # central differences of the values in each parameter
    p = rng.uniform(-1.0, 1.0, (50, 4))
    jac = d.d_params(p)
    for k, step in enumerate(1e-6 * np.eye(len(theta))):
        fd = (d.with_params(theta + step).values(p) - d.with_params(theta - step).values(p)) / 2e-6
        np.testing.assert_allclose(jac[:, :, k], fd, rtol=1e-6, atol=1e-7)


def test_decoupling_without_a_constant_term_has_zero_branch_constants():
    # a PNLSS state polynomial: degrees 2 and 3 over (x1, x2, u)
    basis = enumerate_monomials(3, 2, 3)
    f = PolyMap(basis, np.random.default_rng(25).normal(size=(2, len(basis))))
    for res in (decouple_approx(f, r=2, num_points=200, seed=0),
                decouple_exact(f, r=1, num_points=200, seed=1)):
        assert all(c[0] == 0.0 for c in res.function.branches)


def test_eval_identity():
    d = DecoupledFunction(np.eye(2), np.eye(2), (np.array([0.0, 1.0]), np.array([0.0, 1.0])))
    p = np.array([0.3, -0.7])
    assert np.allclose(eval_decoupled(d, p), p)


def test_eval_worked_example_against_polynomials():
    f = worked_example_map()
    d = decouple_exact(f, r=2, num_points=300, seed=0).function
    assert np.allclose(eval_decoupled(d, np.array([1.0, 0.0])), [63.0, -69.0], atol=1e-8)


def test_zero_branch_gives_zero_output():
    d = DecoupledFunction(np.ones((2, 1)), np.ones((3, 1)), (np.zeros(3),))
    assert np.allclose(eval_decoupled(d, np.array([1.0, 2.0, 3.0])), 0.0)


def test_r_zero_disallowed():
    f = worked_example_map()
    with pytest.raises(ValueError):
        decouple_exact(f, r=0)
    with pytest.raises(ValueError):
        DecoupledFunction(np.ones((2, 0)), np.ones((2, 0)), ())


def test_canonical_form_properties():
    f = worked_example_map()
    d = decouple_exact(f, r=2, num_points=300, seed=0).function
    for i in range(d.r):
        assert np.linalg.norm(d.v[:, i]) == pytest.approx(1.0)
        assert np.linalg.norm(d.w[:, i]) == pytest.approx(1.0)
    scales = [np.linalg.norm(c) for c in d.branches]
    assert scales == sorted(scales, reverse=True)


def test_seed_stability_of_functional_residual():
    f = worked_example_map()
    res_a = decouple_exact(f, r=2, num_points=300, seed=0)
    res_b = decouple_exact(f, r=2, num_points=300, seed=123)
    assert abs(res_a.residual_max - res_b.residual_max) < 1e-6


def test_cpd_error_monotone_over_sweeps():
    rng = np.random.default_rng(6)
    w = rng.normal(size=(3, 2))
    v = rng.normal(size=(4, 2))
    h = rng.normal(size=(50, 2))
    tensor = np.einsum("ir,jr,kr->ijk", w, v, h) + 0.01 * rng.normal(size=(3, 4, 50))
    res = cpd_als(tensor, rank=2, seed=0)
    diffs = np.diff(res.error_history)
    assert np.all(diffs <= 1e-12)


def reference_cpd_als(tensor, rank, seed=0):
    """The ALS sweep that forms both Gram matrices of every mode update."""
    norm = np.linalg.norm(tensor)
    rng = np.random.default_rng(seed)
    unfoldings = [D._unfold(tensor, m) for m in range(3)]
    factors = []
    for mode in range(3):
        u_sv = np.linalg.svd(unfoldings[mode], full_matrices=False)[0]
        take = min(rank, u_sv.shape[1])
        factors.append(np.concatenate(
            [u_sv[:, :take], 0.1 * rng.standard_normal((tensor.shape[mode], rank - take))],
            axis=1))
    errors = []
    prev = np.inf
    stop = "cap"
    for sweep in range(D.CPD_MAX_SWEEPS):
        for mode in range(3):
            others = [factors[m] for m in range(3) if m != mode]
            kr = D._khatri_rao(others[0], others[1])
            gram = (others[0].T @ others[0]) * (others[1].T @ others[1])
            rhs = unfoldings[mode] @ kr
            factors[mode] = np.linalg.solve(
                gram + 1e-14 * np.eye(rank) * max(np.trace(gram), 1.0), rhs.T
            ).T
        err = D._cpd_error(unfoldings[0], factors, norm)
        errors.append(err)
        if prev - err < D.CPD_REL_TOL * max(prev, 1e-300):
            stop = "converged" if err <= D.CPD_CONVERGED else "stalled"
            break
        if (sweep >= D.CPD_WINDOW and err > D.CPD_CONVERGED
                and errors[-1 - D.CPD_WINDOW] - err < D.CPD_PLATEAU * err):
            stop = "plateau"
            break
        prev = err
    return factors, np.asarray(errors), stop


@settings(max_examples=40, deadline=None, derandomize=True)
@given(shape=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(2, 30)),
       true_rank=st.integers(1, 4), rank=st.integers(1, 4), noise=st.sampled_from([0.0, 0.05]),
       seed=st.integers(0, 2**32 - 1))
def test_cpd_als_is_the_reference_sweep_bit_for_bit(shape, true_rank, rank, noise, seed):
    rng = np.random.default_rng(seed)
    tensor = np.einsum("ir,jr,kr->ijk", *(rng.normal(size=(m, true_rank)) for m in shape))
    tensor = tensor + noise * rng.normal(size=shape)
    res = cpd_als(tensor, rank, seed=seed % 1000)
    factors, errors, stop = reference_cpd_als(tensor, rank, seed=seed % 1000)
    assert res.stop == stop
    assert np.array_equal(res.error_history, errors)
    for got, want in zip(res.factors, factors):
        assert np.array_equal(got, want)


def test_cpd_zero_tensor():
    res = cpd_als(np.zeros((2, 3, 4)), rank=2)
    assert res.rel_error == 0.0
    assert res.converged


def test_approx_matches_exact_at_true_rank():
    f = worked_example_map()
    exact = decouple_exact(f, r=2, num_points=300, seed=0)
    approx = decouple_approx(f, r=2, num_points=300, seed=0, restarts=0)
    assert approx.residual_rms <= max(2.0 * exact.residual_rms, 1e-9)


def counted_lm_runs(monkeypatch) -> list[int]:
    """The ``max_iterations`` of every joint LM run, in call order."""
    runs = []
    refine = D._lm_refine

    def counted(func, pts, f_vals, max_iterations):
        runs.append(max_iterations)
        return refine(func, pts, f_vals, max_iterations)

    monkeypatch.setattr(D, "_lm_refine", counted)
    return runs


def test_exact_decoupling_runs_lm_once(monkeypatch):
    runs = counted_lm_runs(monkeypatch)
    decouple_exact(worked_example_map(), r=2, num_points=300, seed=0)
    assert runs == [D.REFINE_ITERATIONS]


@pytest.mark.parametrize("restarts", [0, 1, 2])
def test_approx_runs_lm_once_for_attempt_0_and_twice_per_restart(monkeypatch, restarts):
    # attempt 0's start already lives on the refinement cloud; each restart
    # fits its start on its own cloud first
    runs = counted_lm_runs(monkeypatch)
    decouple_approx(worked_example_map(), r=1, branch_degree=3, num_points=200, seed=0,
                    restarts=restarts)
    assert runs == [D.REFINE_ITERATIONS] + [D.START_ITERATIONS, D.REFINE_ITERATIONS] * restarts


def reference_decouple_exact(f, r, num_points, seed, points=None):
    """The exact decoupling as its own routine: one 30-iteration LM run from
    the CPD start on the cloud of ``seed``."""
    pts = D._cloud(seed, num_points, f.n_vars, points)
    f_vals = eval_polymap(f, pts)
    start, cpd = D._initial_decoupling(f, r, None, pts, f_vals, seed)
    _, func = D._lm_refine(start, pts, f_vals, D.START_ITERATIONS)
    return canonicalize(func), cpd


def reference_decouple_approx(f, r, branch_degree, num_points, seed, restarts, points=None):
    """The approximate decoupling that draws and evaluates attempt 0's cloud
    a second time for its start."""
    pts = D._cloud(seed, num_points, f.n_vars, points)
    f_vals = eval_polymap(f, pts)
    best = None
    for attempt in range(restarts + 1):
        s = seed + 101 * attempt
        cloud = D._cloud(s, num_points, f.n_vars, points)
        vals = eval_polymap(f, cloud)
        start, cpd = D._initial_decoupling(f, r, branch_degree, cloud, vals, s)
        if attempt:
            _, start = D._lm_refine(start, cloud, vals, D.START_ITERATIONS)
        cost, func = D._lm_refine(start, pts, f_vals, D.REFINE_ITERATIONS)
        if best is None or cost < best[0]:
            best = (cost, func, cpd)
    return canonicalize(best[1]), best[2]


def assert_same_decoupling(res, reference):
    func, cpd = reference
    assert np.array_equal(res.function.w, func.w)
    assert np.array_equal(res.function.v, func.v)
    assert len(res.function.branches) == len(func.branches)
    for got, want in zip(res.function.branches, func.branches):
        assert np.array_equal(got, want)
    assert (res.cpd_converged, res.cpd_error, res.cpd_sweeps, res.cpd_stop) == (
        cpd.converged, cpd.rel_error, cpd.sweeps, cpd.stop)


def given_points(n_vars: int) -> np.ndarray:
    return np.random.default_rng(11).uniform(-0.5, 0.5, (400, n_vars))


@pytest.mark.parametrize("kind, seed", [*(("worked", s) for s in range(6)), ("rank4", 8),
                                        ("points", 12)])
def test_exact_is_the_reference_exact_decoupling_bit_for_bit(kind, seed):
    # at a rank the map reaches the LM run stalls within a few iterations, so
    # the refinement's larger cap does not change the fit
    if kind == "rank4":
        f, r, num_points, points = rank_four_map(), 4, 400, None
    else:
        f, r, num_points = worked_example_map(), 2, 300
        points = given_points(2) if kind == "points" else None
    res = decouple_exact(f, r=r, num_points=num_points, seed=seed, points=points)
    assert_same_decoupling(res, reference_decouple_exact(f, r, num_points, seed, points))


@pytest.mark.parametrize("seed", [0, 1])
def test_approx_is_the_reference_approx_decoupling_bit_for_bit(seed):
    # attempt 0 reuses the refinement cloud and its values for its start
    f = worked_example_map()
    res = decouple_approx(f, r=1, branch_degree=3, num_points=200, seed=seed, restarts=1)
    assert_same_decoupling(res, reference_decouple_approx(f, 1, 3, 200, seed, 1))
    f, points = rank_four_map(), given_points(3)
    res = decouple_approx(f, r=2, branch_degree=3, num_points=200, seed=seed, restarts=1,
                          points=points)
    assert_same_decoupling(res, reference_decouple_approx(f, 2, 3, 200, seed, 1, points))


def test_approx_restarts_keep_the_held_out_residual():
    res = decouple_approx(worked_example_map(), r=1, branch_degree=3, num_points=400, seed=0)
    assert res.residual_rms == pytest.approx(15.905858404739, abs=1e-6)


def rank_four_map() -> PolyMap:
    """A generic map with four cubic branches over three inputs."""
    rng = np.random.default_rng(7)
    w = rng.normal(size=(2, 4))
    v = rng.normal(size=(3, 4))
    branches = tuple(rng.normal(size=4) for _ in range(4))
    return to_polymap(DecoupledFunction(w, v, branches))


def test_approx_residual_nonincreasing_in_r():
    # reduced-rank approximation of a higher-rank target improves with r
    f = rank_four_map()
    residuals = []
    for r in (1, 2, 3, 4):
        res = decouple_approx(f, r=r, branch_degree=3, num_points=400, seed=8, restarts=1)
        residuals.append(res.residual_rms)
    assert all(residuals[i + 1] <= residuals[i] * (1 + 1e-6) for i in range(3))


def test_exact_below_the_rank_runs_one_cpd(monkeypatch):
    # one ALS run per CPD: below the map's rank the run ends at the sweep cap
    # at the latest
    import nlsid.decouple as D

    calls = []
    error = D._cpd_error

    def counted(*args):
        calls.append(1)
        return error(*args)

    monkeypatch.setattr(D, "_cpd_error", counted)
    res = D.decouple_exact(rank_four_map(), r=3, seed=8)
    assert not res.cpd_converged
    assert 0 < len(calls) <= 2000


def test_cpd_below_the_rank_stops_on_a_plateau():
    res = decouple_exact(rank_four_map(), r=3, seed=8)
    assert res.cpd_stop == "plateau"
    assert res.cpd_sweeps < 600
    assert not res.cpd_converged


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_cpd_of_an_exact_decomposition_stops_at_the_rounding_floor(seed):
    res = decouple_exact(worked_example_map(), r=2, num_points=300, seed=seed)
    assert res.cpd_stop in ("stalled", "converged")
    assert res.cpd_sweeps < 300
    assert res.cpd_error <= 1e-12


def test_cpd_result_reports_sweeps_and_stop():
    rng = np.random.default_rng(6)
    tensor = np.einsum("ir,jr,kr->ijk", *(rng.normal(size=(m, 2)) for m in (3, 4, 50)))
    res = cpd_als(tensor, rank=2, seed=0)
    assert res.sweeps == len(res.error_history) > 0
    assert res.stop == "converged" and res.converged


def test_approx_reports_cpd_that_misses_the_rank():
    # a generic rank-4 map cannot be decoupled exactly with one branch
    f = rank_four_map()
    res = decouple_approx(f, r=1, branch_degree=3, num_points=100, seed=8, restarts=0)
    assert res.cpd_converged is False
    assert np.isfinite(res.cpd_error) and res.cpd_error > 1e-8
    at_rank = decouple_approx(f, r=4, branch_degree=3, num_points=100, seed=8, restarts=0)
    assert at_rank.cpd_converged is True
    assert at_rank.cpd_error <= 1e-8


def test_cpd_converged_is_the_cpd_not_the_fit():
    # at r = 4 > n_q the CPD of the Jacobians is exact but not unique, and
    # the decoupled map misses the map's values
    res = decouple_approx(rank_four_map(), r=4, num_points=300, seed=0)
    assert res.cpd_converged
    assert res.residual_max == pytest.approx(0.22, abs=0.01)


def test_approx_with_given_points_cloud():
    f = worked_example_map()
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.5, 0.5, (400, 2))
    res = decouple_approx(f, r=2, num_points=400, seed=12, points=pts)
    assert res.residual_rms < 1e-7


def test_to_polymap_round_trip():
    rng = np.random.default_rng(13)
    d = DecoupledFunction(
        rng.normal(size=(2, 2)), rng.normal(size=(3, 2)),
        (rng.normal(size=6), rng.normal(size=4)),
    )
    f = to_polymap(d)
    pts = rng.uniform(-1, 1, (100, 3))
    assert np.allclose(eval_polymap(f, pts), eval_decoupled(d, pts), atol=1e-10)


def reference_to_polymap(d: DecoupledFunction) -> np.ndarray:
    """Coefficients of ``W g(V^T p)`` by the multinomial theorem, one exponent
    multiset at a time."""
    n_p = d.n_inputs
    basis = enumerate_monomials(n_p, 0, max(len(c) - 1 for c in d.branches))
    index = {e: i for i, e in enumerate(basis.exponents)}
    coeff = np.zeros((d.n_outputs, len(basis)))
    for i in range(d.r):
        v = d.v[:, i]
        for j, cj in enumerate(d.branches[i]):
            for combo in combinations_with_replacement(range(n_p), j):
                exp = [0] * n_p
                for k in combo:
                    exp[k] += 1
                mult = math.factorial(j)
                coef = cj
                for k, e in enumerate(exp):
                    mult //= math.factorial(e)
                    coef *= v[k] ** e
                coeff[:, index[tuple(exp)]] += d.w[:, i] * (mult * coef)
    return coeff


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_p=st.integers(1, 4), n_q=st.integers(1, 3),
       lengths=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
@example(n_p=2, n_q=2, lengths=[1, 1], seed=0)  # constant-only branches: degree 0
def test_to_polymap_is_the_reference_expansion(n_p, n_q, lengths, seed):
    rng = np.random.default_rng(seed)
    r = len(lengths)
    d = DecoupledFunction(rng.normal(size=(n_q, r)), rng.normal(size=(n_p, r)),
                          tuple(rng.normal(size=k) for k in lengths))
    f = to_polymap(d)
    want = reference_to_polymap(d)
    assert f.basis == enumerate_monomials(n_p, 0, max(lengths) - 1)
    assert f.coefficients.shape == want.shape
    assert np.max(np.abs(f.coefficients - want)) <= 1e-12 * np.max(np.abs(want))


def test_serialization_round_trip():
    f = worked_example_map()
    d = decouple_exact(f, r=2, num_points=300, seed=0).function
    back = DecoupledFunction.from_dict(d.to_dict())
    pts = np.random.default_rng(14).uniform(-1, 1, (50, 2))
    assert np.array_equal(eval_decoupled(d, pts), eval_decoupled(back, pts))


def test_canonicalize_is_idempotent_and_function_preserving():
    rng = np.random.default_rng(15)
    d = DecoupledFunction(
        rng.normal(size=(2, 3)), rng.normal(size=(4, 3)),
        tuple(rng.normal(size=5) for _ in range(3)),
    )
    c1 = canonicalize(d)
    c2 = canonicalize(c1)
    pts = rng.uniform(-1, 1, (100, 4))
    assert np.allclose(eval_decoupled(d, pts), eval_decoupled(c1, pts), atol=1e-10)
    for a, b in zip(c1.branches, c2.branches):
        assert np.allclose(a, b, atol=1e-12)
    assert np.allclose(c1.v, c2.v, atol=1e-12)
