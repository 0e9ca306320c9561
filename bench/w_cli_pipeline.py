"""``cli_pipeline``: in-process ``nlsid pipeline`` runs into fresh directories.

One round is ten pipeline passes, five systems each fitted by NARX and by
Volterra, plus a rerun of the Duffing/NARX pass into a new directory.  All
excitations are odd grids with random detection lines (N = 256, eight
periods after one discarded), because the analysis stage rejects a full grid.
Volterra uses memory 6, degree 2 and the marginal-likelihood grid.  The
tanks get a NARX model without output lags (na = 0), because a free run with
output feedback diverges on some seeds.  The configuration seed is
``--seed``.
"""

from __future__ import annotations

import json
import shutil

import checks as C
from nlsid import cli
from nlsid import serialize

import bootstrap


def _odd(fs: float, k_max: int, rms: float) -> dict:
    return {"fs": fs, "period_samples": 256, "grid_kind": "odd_random_skip",
            "k_max": k_max, "rms": rms}


NOISE_STD = 1e-3
# name -> (system, excitation, measurement noise std, NARX orders, linear?)
SYSTEMS = {
    "duffing": ({"type": "duffing", "fs": 128.0, "hardening": 1.0},
                _odd(128.0, 51, 0.3), NOISE_STD, (2, 2, 3), False),
    "tanks": ({"type": "tanks", "k1": 0.5, "k2": 0.4, "k3": 0.3, "k4": 1.0,
               "x1_max": 10.0, "x2_max": 10.0, "oversample": 8},
              _odd(2.0, 41, 0.5), 1e-4, (0, 4, 2), False),
    "static_linear": ({"type": "static", "coefficients": [0.0, 1.0]},
                      _odd(128.0, 51, 0.4), NOISE_STD, (1, 1, 1), True),
    "static_poly": ({"type": "static", "coefficients": [0.0, 1.0, 0.15]},
                    _odd(128.0, 51, 0.4), NOISE_STD, (1, 1, 2), False),
    "wiener": ({"type": "block_oriented", "structure": "wiener",
                "blocks": [{"b": [1.0, 0.5], "a": [1.0, -0.3]}],
                "nonlinearity": [0.0, 1.0, 0.2]},
               _odd(128.0, 51, 0.4), NOISE_STD, (1, 2, 2), False),
}
VOLTERRA = {"type": "volterra", "memory": 6, "degree": 2,
            "regularizer": {"tuning": "marginal_likelihood_grid"}}
RERUN = ("duffing", "narx")


def config(system: str, fit: str, seed: int) -> dict:
    sys_cfg, excitation, std, (na, nb, degree), _ = SYSTEMS[system]
    fit_cfg = ({"type": "narx", "na": na, "nb": nb, "degree": degree} if fit == "narx"
               else VOLTERRA)
    return {"schema_version": 1, "seed": seed, "excitation": excitation, "system": sys_cfg,
            "noise": {"measurement_std": std}, "num_periods": 8, "discard_periods": 1,
            "fit": fit_cfg, "max_lag": 20}


class CliPipeline:
    name = "cli_pipeline"
    metrics = ("simulators.simulate_s", "simulators.us_per_sample", "polybasis.eval_calls",
               "polybasis.eval_s", "narx.fit_s", "narx.simulate_s", "volterra.fit_s",
               "validate.report_s", "serialize.read_s", "serialize.write_s", "cli.self_s")

    def setup(self, seed: int) -> dict:
        work = bootstrap.BENCH_DIR / "out" / f"work-{seed}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        passes = [(s, f) for s in SYSTEMS for f in ("narx", "volterra")] + [RERUN]
        configs = []
        for i, (system, fit) in enumerate(passes):
            path = work / f"config-{i}.json"
            path.write_text(json.dumps(config(system, fit, seed)))
            configs.append((system, fit, path))
        return {"work": work, "configs": configs, "round": 0}

    def ops(self, state: dict):
        round_dir = state["work"] / f"round{state['round']}"
        state["round"] += 1
        return [(f"pipeline {system}/{fit}",
                 lambda path=path, out=round_dir / f"pass{i}": self._pipeline(path, out))
                for i, (system, fit, path) in enumerate(state["configs"])]

    @staticmethod
    def _pipeline(config_path, out):
        code = cli.main(["pipeline", "--config", str(config_path), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"nlsid pipeline exited {code}")
        return out

    def end_round(self, state: dict) -> None:
        """Keep the first round's directories for the checks, drop the others."""
        if state["round"] > 1:
            shutil.rmtree(state["work"] / f"round{state['round'] - 1}")

    def check(self, state: dict, results: list, seed: int):
        problems, values = [], {}
        by_pass = {}
        for (system, fit, _), out in zip(state["configs"], results):
            if out is None:
                problems.append(f"{system}/{fit}: pipeline did not exit 0")
                continue
            by_pass.setdefault((system, fit), []).append(out)
        for (system, fit), outs in by_pass.items():
            summary = serialize.read_json(outs[0] / "pipeline_summary.json")
            values[f"{system}.{fit}.fit_percent"] = summary["fit_percent"]
            values[f"{system}.{fit}.rms_error"] = summary["rms_error"]
            values[f"{system}.{fit}.verdict"] = summary["verdict"]
            linear = SYSTEMS[system][4]
            problems += C.collect(
                C.equal_text(f"{system}/{fit} verdict", summary["verdict"], "linear adequate")
                if linear else
                C.startswith(f"{system}/{fit} verdict", summary["verdict"],
                             "nonlinear recommended"))
        if ("static_poly", "narx") in by_pass:
            summary = serialize.read_json(by_pass["static_poly", "narx"][0] / "pipeline_summary.json")
            problems += C.collect(C.within("static_poly/narx rms error over the noise std",
                                           summary["rms_error"] / NOISE_STD, 0.7, 1.3))
        if len(by_pass.get(RERUN, [])) == 2:
            first, rerun = by_pass[RERUN]
            # the manifest holds stage hashes over the output paths, so it differs
            problems += C.collect(C.identical_trees("rerun into a new directory", first, rerun,
                                                    skip={"manifest.json"}))
        return problems, values

    def cleanup(self, state: dict) -> None:
        shutil.rmtree(state["work"], ignore_errors=True)
