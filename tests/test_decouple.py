from operator import mul

import numpy as np
import pytest

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
    assert res.converged
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
            s = sum(map(mul, vi, point))
            g = 0.0
            for cj in c[::-1].tolist():
                g = g * s + cj
            row.append(g)
        loop.append(row)
    assert np.array_equal(d.branch_values(p), np.array(loop))
    assert np.array_equal(eval_decoupled(d, p), d.branch_values(p) @ d.w.T)


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


def test_cpd_zero_tensor():
    res = cpd_als(np.zeros((2, 3, 4)), rank=2)
    assert res.rel_error == 0.0
    assert res.converged


def test_approx_matches_exact_at_true_rank():
    f = worked_example_map()
    exact = decouple_exact(f, r=2, num_points=300, seed=0)
    approx = decouple_approx(f, r=2, num_points=300, seed=0, restarts=0)
    assert approx.residual_rms <= max(2.0 * exact.residual_rms, 1e-9)


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
    assert not res.converged
    assert 0 < len(calls) <= 2000


def test_cpd_below_the_rank_stops_on_a_plateau():
    res = decouple_exact(rank_four_map(), r=3, seed=8)
    assert res.cpd_stop == "plateau"
    assert res.cpd_sweeps < 600
    assert not res.converged


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
    assert res.converged is False
    assert np.isfinite(res.cpd_error) and res.cpd_error > 1e-8
    at_rank = decouple_approx(f, r=4, branch_degree=3, num_points=100, seed=8, restarts=0)
    assert at_rank.converged is True
    assert at_rank.cpd_error <= 1e-8


def test_approx_zero_weight_excludes_output():
    # a zero weight removes that output from the objective exactly: replacing
    # its polynomial by garbage must not change the result at all
    f = worked_example_map()
    mangled_coeffs = f.coefficients.copy()
    mangled_coeffs[1] = np.random.default_rng(1).normal(size=mangled_coeffs.shape[1]) * 100
    f_mangled = PolyMap(f.basis, mangled_coeffs)
    w = np.array([1.0, 0.0])
    res_a = decouple_approx(f, r=2, weight=w, num_points=300, seed=9, restarts=0)
    res_b = decouple_approx(f_mangled, r=2, weight=w, num_points=300, seed=9, restarts=0)
    assert res_a.residual_rms == res_b.residual_rms
    pts = np.random.default_rng(10).uniform(-1, 1, (200, 2))
    err0_a = eval_polymap(f, pts)[:, 0] - eval_decoupled(res_a.function, pts)[:, 0]
    err0_b = eval_polymap(f_mangled, pts)[:, 0] - eval_decoupled(res_b.function, pts)[:, 0]
    assert np.array_equal(err0_a, err0_b)


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
