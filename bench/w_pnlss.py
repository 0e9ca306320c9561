"""The two PNLSS workloads: ``pnlss_fit`` identifies, ``pnlss_reduce`` reduces.

Both use the criterion-5 Duffing data of :mod:`duffing_c5`.  The excitation
phases are the fixture's own (realizations 0..3 for training, 99 for
validation); ``--seed`` draws the measurement noise of every operation.  Each
fit and refit runs a fixed number of Levenberg-Marquardt iterations, so an
operation does nearly the same work on every seed (only rejected LM trials
differ) and the median is steady.  On the
fixture's phases the capped fits already reach the checks with a wide margin.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

import checks as C
import duffing_c5 as c5
from nlsid import bla as B
from nlsid import decouple as D
from nlsid import pnlss as P
from nlsid import polybasis as PB
from nlsid import serialize
from nlsid import signals as S

import bootstrap

FIT_OPS = 2                 # identifications per round, on realizations 0 and 1
FIT_ITERATIONS = 15
TRAIN_PHASES = (0, 1, 2, 3)
VAL_PHASE = 99

REDUCE_OPS = 2              # reductions per round
REDUCE_ITERATIONS = 4
BRANCH_DEGREE = 5
CLOUD_POINTS = 600
MODEL_PATH = bootstrap.BENCH_DIR / "data" / "c5_model.json"


def _noise_rng(seed: int, op: int) -> np.random.Generator:
    return np.random.default_rng([seed, op])


def _reference_map(e_map):
    if e_map is None:
        return None
    if isinstance(e_map, PB.PolyMap):
        exps, coeffs = e_map.basis.exponents, e_map.coefficients
        return lambda z: C.monomials(exps, z) @ coeffs.T
    return lambda z: C.decoupled(e_map.w, e_map.v, e_map.branches, z)


def reference_check(name: str, model, u, y_program) -> str | None:
    """The program's simulation agrees with a plain state-space loop."""
    if model.f_map is not None:
        return f"{name}: reference loop has no output nonlinearity"
    y_ref = C.state_space_output(model.a, model.b, model.c, model.d, model.x0,
                                 _reference_map(model.e_map), u)
    return C.relative_close(f"{name} against the reference loop", y_program, y_ref, 1e-8)


class PnlssFit:
    name = "pnlss_fit"
    metrics = ("simulators.simulate_s", "simulators.us_per_sample", "polybasis.eval_calls",
               "polybasis.eval_s", "pnlss.simulate_s", "pnlss.simulate_calls",
               "pnlss.us_per_sample", "pnlss.fit_self_s", "pnlss.lm_iterations",
               "pnlss.lm_accept_ratio")

    def setup(self, seed: int) -> dict:
        spec = c5.spec()
        duffing = c5.params()
        train = [c5.truth(ph, spec, duffing) for ph in TRAIN_PHASES]
        val = c5.truth(VAL_PHASE, spec, duffing)
        ops = []
        for k in range(FIT_OPS):
            rng = _noise_rng(seed, k)
            ops.append(([c5.with_noise(r, rng) for r in train], c5.with_noise(val, rng)))
        return {"spec": spec, "lines": np.asarray(spec.excited_lines), "ops": ops}

    def ops(self, state: dict):
        return [(f"identify realization {k}", lambda k=k: self._identify(state, k))
                for k in range(FIT_OPS)]

    @staticmethod
    def _identify(state: dict, k: int):
        recs, _ = state["ops"][k]
        bla_model = B.estimate_bla_spectral(recs, state["spec"])
        lin, _ = P.init_linear_from_bla(bla_model, c5.STATE_DIM)
        model, report = P.fit_pnlss(lin, recs[k], state["lines"], state_degree=c5.STATE_DEGREE,
                                    max_iterations=FIT_ITERATIONS)
        return lin, model, report

    def check(self, state: dict, results: list, seed: int):
        problems, values = [], {}
        for k, result in enumerate(results):
            if result is None:
                continue
            lin, model, report = result
            val = state["ops"][k][1]
            y_lin = P.simulate_pnlss(lin, val.input).y
            y_fit = P.simulate_pnlss(model, val.input).y
            ratio = (C.second_period_rms(val.output, y_fit, c5.N_PER)
                     / C.second_period_rms(val.output, y_lin, c5.N_PER))
            rms_ratio = report.final_rms_time / c5.NOISE_STD
            values[f"op{k}.free_run_error_vs_linear"] = ratio
            values[f"op{k}.training_rms_over_noise_std"] = rms_ratio
            values[f"op{k}.final_cost"] = float(report.cost_trajectory[-1])
            problems += C.collect(
                C.at_most(f"op {k}: free-run error over the BLA-linear error", ratio, 0.1),
                C.within(f"op {k}: training RMS over the noise std", rms_ratio, 0.5, 2.0),
                C.non_increasing(f"op {k}: LM costs", report.cost_trajectory),
                reference_check(f"op {k}: validation free run", model, val.input, y_fit))
        return problems, values


def worked_example() -> PB.PolyMap:
    """The two-branch polynomial of acceptance criterion 3."""
    basis = PB.enumerate_monomials(2, 0, 3)
    coeffs = np.array([[1, 0, 8, 8, 16, 8, 54, -54, 18, -2],
                       [-3, -15, -19, -24, -48, -24, -27, 27, -9, 1]], dtype=float)
    return PB.PolyMap(basis, coeffs)


class PnlssReduce:
    name = "pnlss_reduce"
    metrics = ("pnlss.simulate_s", "pnlss.simulate_calls", "pnlss.us_per_sample",
               "pnlss.fit_self_s", "pnlss.lm_iterations", "pnlss.lm_accept_ratio",
               "pnlss.single_branch_init_s", "decouple.cpd_s", "decouple.cpd_sweeps",
               "decouple.refine_s", "decouple.eval_calls")

    def setup(self, seed: int) -> dict:
        model = P.PnlssModel.from_dict(serialize.read_json(MODEL_PATH)["model"])
        spec = c5.spec()
        duffing = c5.params()
        train = c5.truth(TRAIN_PHASES[0], spec, duffing)
        val = c5.truth(VAL_PHASE, spec, duffing)
        ops = []
        for k in range(REDUCE_OPS):
            noisy = c5.with_noise(train, _noise_rng(seed, k))
            n = c5.N_PER
            ops.append(S.SignalRecord(c5.FS, n, 1, noisy.input[:n], noisy.output[:n]))
        return {"model": model, "train_input": train.input, "val": val, "ops": ops,
                "lines": np.arange(1, c5.N_PER // 2)}

    def ops(self, state: dict):
        return [(f"reduce with cloud seed {k}", lambda k=k: self._reduce(state, k))
                for k in range(REDUCE_OPS)]

    @staticmethod
    def _reduce(state: dict, k: int):
        model = state["model"]
        u = state["train_input"]
        sim = P.simulate_pnlss(model, u)
        cloud = np.concatenate([sim.x_traj, u[:, None]], axis=1)
        dec2 = D.decouple_approx(model.e_map, r=2, branch_degree=BRANCH_DEGREE,
                                 num_points=CLOUD_POINTS, seed=k, points=cloud, restarts=0)
        dec1 = D.decouple_approx(model.e_map, r=1, branch_degree=BRANCH_DEGREE,
                                 num_points=CLOUD_POINTS, seed=k, points=cloud, restarts=1)
        sbi = P.single_branch_init(model, cloud, branch_degree=BRANCH_DEGREE)
        starts = (replace(model, e_map=dec2.function), replace(model, e_map=dec1.function), sbi)
        refits = [P.fit_pnlss_decoupled(start, state["ops"][k], state["lines"],
                                        max_iterations=REDUCE_ITERATIONS) for start in starts]
        val_sims = [P.simulate_pnlss(m, state["val"].input) for m, _ in refits]
        return [dec2.function, dec1.function], refits, val_sims

    def check(self, state: dict, results: list, seed: int):
        problems, values = [], {}
        rng = np.random.default_rng([seed, 3])
        f = worked_example()
        exact = D.decouple_exact(f, r=2, num_points=300, seed=seed)
        pts = rng.uniform(-1.0, 1.0, (1000, 2))
        want = C.monomials(f.basis.exponents, pts) @ f.coefficients.T
        got = C.decoupled(exact.function.w, exact.function.v, exact.function.branches, pts)
        resid = float(np.max(np.abs(got - want)))
        values["criterion3_max_residual"] = resid
        problems += C.collect(C.at_most("criterion-3 decoupling residual", resid, 1e-8))

        val = state["val"]
        y_full = P.simulate_pnlss(state["model"], val.input).y
        err_full = C.second_period_rms(val.output, y_full, c5.N_PER)
        for k, result in enumerate(results):
            if result is None:
                continue
            decs, refits, val_sims = result
            maps = decs + [m.e_map for m, _ in refits]
            for i, d in enumerate(maps):
                pts = rng.normal(0.0, 0.5, (200, d.n_inputs))
                expanded = D.to_polymap(d)
                direct = D.eval_decoupled(d, pts)
                problems += C.collect(
                    C.relative_close(f"op {k} map {i}: to_polymap against eval_decoupled",
                                     PB.eval_polymap(expanded, pts), direct, 1e-9),
                    C.relative_close(f"op {k} map {i}: eval_decoupled against W g(V^T p)",
                                     direct, C.decoupled(d.w, d.v, d.branches, pts), 1e-12))
            for i, ((m, report), sim) in enumerate(zip(refits, val_sims)):
                costs = report.cost_trajectory
                values[f"op{k}.refit{i}.start_cost"] = float(costs[0])
                values[f"op{k}.refit{i}.final_cost"] = float(costs[-1])
                values[f"op{k}.refit{i}.validation_error_vs_full"] = (
                    C.second_period_rms(val.output, sim.y, c5.N_PER) / err_full)
                problems += C.collect(
                    C.non_increasing(f"op {k} refit {i}: LM costs", costs),
                    C.at_most(f"op {k} refit {i}: final over starting cost",
                              float(costs[-1] / costs[0]), 1.0),
                    None if not sim.diverged else f"op {k} refit {i}: validation run diverged")
            m0, _ = refits[0]
            problems += C.collect(
                reference_check(f"op {k} refit 0: validation run", m0, val.input, val_sims[0].y))
        return problems, values
