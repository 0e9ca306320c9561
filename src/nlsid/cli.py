"""Batch command-line front end.

Wires the library into a file-based workflow: design an excitation, simulate a
benchmark system, run the nonparametric analysis, estimate the BLA and the
parametric models, decouple, validate.  Every command reads a JSON config
(``--config``), writes into ``--out``, and is deterministic given its seeds,
producing byte-identical reports on reruns.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 divergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import bla as bla_mod
from . import narx as narx_mod
from . import nonparam, pnlss, signals, simulators, validate, volterra
from .decouple import DecoupledFunction, decouple_approx, decouple_exact
from .polybasis import PolyMap
from .serialize import (read_json, read_signal_record, write_csv, write_json,
                        write_signal_record)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Malformed or incomplete run configuration (exit code 2)."""


def _require(config: dict, key: str, kind=None):
    if key not in config:
        raise ConfigError(f"missing required config field '{key}'")
    value = config[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"config field '{key}' must be of type {kind}")
    return value


def _check_keys(config: dict, allowed: set, where: str = "config"):
    unknown = set(config) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {sorted(unknown)}")


def _check_schema(config: dict):
    version = _require(config, "schema_version", int)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version} (expected {SCHEMA_VERSION})")


def _config_values(build):
    """Report a value that ``build`` rejects as a config error (exit 2), not
    as a numeric failure (exit 3)."""
    def checked(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except (TypeError, ValueError) as exc:  # ConfigError is a ValueError
            raise ConfigError(str(exc)) from exc
    return checked


def _read_record(path) -> signals.SignalRecord:
    """Report a record that fails to load (missing or malformed files, a
    non-finite sample) as a config error (exit 2).  ``read_signal_record`` is
    looked up at each call, so code that replaces the module attribute (a
    tracer, a test double) sees every read."""
    try:
        return read_signal_record(path)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"record {path} does not load: {exc}") from exc


def _load_config(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


@_config_values
def _build_spec(cfg: dict, seed: int) -> signals.MultisineSpec:
    _check_keys(cfg, {"fs", "period_samples", "grid_kind", "k_max", "lines",
                      "rms", "group_size"}, "excitation")
    fs = float(_require(cfg, "fs"))
    n = int(_require(cfg, "period_samples"))
    kind = cfg.get("grid_kind", "full")
    rms = float(cfg.get("rms", 1.0))
    if "lines" in cfg:
        lines = tuple(int(k) for k in cfg["lines"])
    else:
        k_max = int(_require(cfg, "k_max"))
        if kind == "full":
            lines = signals.full_grid(n, k_max)
        elif kind == "odd_only":
            lines = signals.odd_grid(n, k_max)
        elif kind == "odd_random_skip":
            lines, _ = signals.odd_random_skip_grid(n, k_max, seed,
                                                    int(cfg.get("group_size", 4)))
        else:
            raise ConfigError(f"unknown grid_kind '{kind}'")
    spec = signals.flat_amplitude_spec(n, fs, lines, rms=rms, grid_kind=kind, seed=seed)
    return signals.random_phases(spec, seed)


def _require_odd_grid(kind: str, command: str) -> None:
    if kind not in nonparam.ODD_GRID_KINDS:
        raise ConfigError(f"{command} classifies lines, which needs an odd excitation grid "
                          f"(grid_kind {' or '.join(map(repr, nonparam.ODD_GRID_KINDS))}), "
                          f"got {kind!r}")


def cmd_design(config: dict, out: Path, seed_override: int | None) -> None:
    _check_schema(config)
    _check_keys(config, {"schema_version", "excitation", "seed", "num_periods"})
    seed = seed_override if seed_override is not None else config.get("seed")
    if seed is None:
        raise ConfigError("missing required config field 'seed' (stochastic phases)")
    spec = _build_spec(_require(config, "excitation", dict), int(seed))
    num_periods = int(config.get("num_periods", 1))
    u = signals.design_multisine(spec, num_periods)
    write_json(out / "multisine.json", spec.to_dict())
    rec = signals.SignalRecord(spec.sample_rate_hz, spec.period_samples, num_periods,
                               u, np.zeros_like(u), label="designed excitation")
    write_signal_record(out / "signal.csv", rec)


@_config_values
def _build_noise(cfg: dict, seed: int) -> simulators.NoiseSpec:
    _check_keys(cfg, {"measurement_std", "process_std", "process_entry"}, "noise")
    return simulators.NoiseSpec(
        measurement_std=float(cfg.get("measurement_std", 0.0)),
        process_std=float(cfg.get("process_std", 0.0)),
        process_entry=cfg.get("process_entry", "none"),
        seed=seed,
    )


@_config_values
def _build_system(cfg: dict):
    kind = _require(cfg, "type")
    if kind == "duffing":
        _check_keys(cfg, {"type", "c", "k1", "k3", "b", "oversample", "resonance_frac",
                          "damping_ratio", "hardening", "fs"}, "system")
        if "k1" in cfg:
            params = simulators.DuffingParams(
                c=float(cfg["c"]), k1=float(cfg["k1"]), k3=float(cfg["k3"]),
                b=float(cfg.get("b", 1.0)), oversample=int(cfg.get("oversample", 16)))
        else:
            params = simulators.default_duffing(
                float(_require(cfg, "fs")),
                resonance_frac=float(cfg.get("resonance_frac", 0.1)),
                damping_ratio=float(cfg.get("damping_ratio", 0.05)),
                hardening=float(cfg.get("hardening", 1.0)),
                oversample=int(cfg.get("oversample", 16)))
        return lambda u, fs, noise: simulators.simulate_duffing(params, u, fs, noise)
    if kind == "tanks":
        _check_keys(cfg, {"type", "k1", "k2", "k3", "k4", "x1_max", "x2_max",
                          "spill_fraction", "oversample"}, "system")
        params = simulators.TanksParams(
            k1=float(cfg["k1"]), k2=float(cfg["k2"]), k3=float(cfg["k3"]),
            k4=float(cfg["k4"]), x1_max=float(cfg["x1_max"]), x2_max=float(cfg["x2_max"]),
            spill_fraction=float(cfg.get("spill_fraction", 0.5)),
            oversample=int(cfg.get("oversample", 16)))
        return lambda u, fs, noise: simulators.simulate_tanks(params, u, fs, noise)
    if kind == "static":
        _check_keys(cfg, {"type", "coefficients"}, "system")
        coeffs = [float(c) for c in _require(cfg, "coefficients")]
        return lambda u, fs, noise: simulators.simulate_static(coeffs, u, noise, fs)
    if kind == "block_oriented":
        _check_keys(cfg, {"type", "structure", "blocks", "nonlinearity"}, "system")
        blocks = tuple(simulators.LinearBlock(tuple(b["b"]), tuple(b["a"]))
                       for b in _require(cfg, "blocks"))
        spec = simulators.BlockOrientedSpec(_require(cfg, "structure"), blocks,
                                            tuple(_require(cfg, "nonlinearity")))
        return lambda u, fs, noise: simulators.simulate_block_oriented(spec, u, noise, fs)
    raise ConfigError(f"unknown system type '{kind}'")


def cmd_simulate(config: dict, out: Path, seed_override: int | None) -> None:
    _check_schema(config)
    _check_keys(config, {"schema_version", "system", "excitation", "input_csv",
                         "num_periods", "discard_periods", "noise", "seed"})
    seed = seed_override if seed_override is not None else config.get("seed")
    if seed is None:
        raise ConfigError("missing required config field 'seed'")
    seed = int(seed)
    system = _build_system(_require(config, "system", dict))
    noise = _build_noise(config.get("noise", {}), seed)
    num_periods = int(config.get("num_periods", 2))
    discard = int(config.get("discard_periods", 1))
    if "excitation" in config:
        spec = _build_spec(config["excitation"], seed)
        u_period = signals.design_multisine(spec)
        fs = spec.sample_rate_hz
        write_json(out / "multisine.json", spec.to_dict())
    elif "input_csv" in config:
        rec_in = _read_record(config["input_csv"])
        u_period = rec_in.input[: rec_in.period_samples]
        fs = rec_in.sample_rate_hz
    else:
        raise ConfigError("simulate needs either 'excitation' or 'input_csv'")
    rec = simulators.steady_state_record(
        lambda u, fs: system(u, fs, noise), u_period, fs, num_periods, discard)
    write_signal_record(out / "record.csv", rec)


def cmd_analyze(config: dict, out: Path, seed_override: int | None) -> None:
    _check_schema(config)
    _check_keys(config, {"schema_version", "record", "spec", "discard_periods",
                         "threshold_db", "smoothing_window"})
    rec = _read_record(_require(config, "record"))
    spec = signals.MultisineSpec.from_dict(read_json(_require(config, "spec")))
    _require_odd_grid(spec.grid_kind, "analyze")
    stats = nonparam.sample_statistics(rec, int(config.get("discard_periods", 0)))
    report = nonparam.classify_lines(spec, stats)
    rows = report.to_rows()
    write_csv(out / "distortion.csv", ["freq_hz", "class", "magnitude_db", "floor_db"],
              [np.array([r[0] for r in rows]),
               np.array([r[1] for r in rows], dtype=object),
               np.array([r[2] for r in rows]),
               np.array([r[3] for r in rows])])
    threshold = float(config.get("threshold_db", nonparam.DISTORTION_THRESHOLD_DB))
    even_excess = report.excess_db("even")
    odd_excess = report.excess_db("odd_detection")
    summary = {
        "even_median_excess_db": float(np.median(even_excess)) if len(even_excess) else 0.0,
        "odd_median_excess_db": float(np.median(odd_excess)) if len(odd_excess) else 0.0,
        "even_distorted_fraction": float(np.mean(report.distorted("even", threshold)))
        if len(even_excess) else 0.0,
        "odd_distorted_fraction": float(np.mean(report.distorted("odd_detection", threshold)))
        if len(odd_excess) else 0.0,
        "threshold_db": threshold,
    }
    if rec.num_periods >= 4:
        pn = nonparam.detect_process_noise(rec, config.get("smoothing_window"))
        summary["process_noise_verdict"] = pn.verdict
        summary["stationarity_ratio"] = pn.stationarity_ratio
    write_json(out / "analysis.json", summary)


def cmd_bla(config: dict, out: Path, seed_override: int | None) -> None:
    _check_schema(config)
    _check_keys(config, {"schema_version", "records", "spec", "discard_periods"})
    recs = [_read_record(p) for p in _require(config, "records", list)]
    spec = signals.MultisineSpec.from_dict(read_json(_require(config, "spec")))
    model = bla_mod.estimate_bla_spectral(recs, spec, int(config.get("discard_periods", 0)))
    write_json(out / "bla.json", model.to_dict())
    write_csv(out / "bla.csv", ["freq_hz", "re_g", "im_g", "var_total", "var_noise"],
              [model.frequency_hz, model.frf.real, model.frf.imag,
               model.frf_variance_total, model.frf_variance_noise])


def cmd_fit_narx(config: dict, out: Path, seed_override: int | None) -> None:
    _check_schema(config)
    _check_keys(config, {"schema_version", "record", "na", "nb", "degree", "direct_term"})
    rec = _read_record(_require(config, "record"))
    model = narx_mod.fit_narx(rec, int(_require(config, "na")), int(_require(config, "nb")),
                              int(_require(config, "degree")),
                              bool(config.get("direct_term", True)))
    write_json(out / "narx.json", model.to_dict())


def cmd_fit_pnlss(config: dict, out: Path, seed_override: int | None) -> None:
    _check_schema(config)
    _check_keys(config, {"schema_version", "record", "records", "spec", "state_dim",
                         "state_degree", "output_degree", "max_iterations", "lines"})
    spec = signals.MultisineSpec.from_dict(read_json(_require(config, "spec")))
    paths = config["records"] if "records" in config else [_require(config, "record")]
    if len(paths) != 1:
        raise ConfigError("fit-pnlss fits one record: give 'record' or one entry in 'records'")
    rec = _read_record(paths[0])
    model_bla = bla_mod.estimate_bla_spectral([rec], spec)
    lin, frf_rms = pnlss.init_linear_from_bla(model_bla, int(config.get("state_dim", 2)))
    lines = np.asarray(config.get("lines", list(spec.excited_lines)), dtype=int)
    output_degree = config.get("output_degree")
    model, report = pnlss.fit_pnlss(
        lin, rec, lines,
        state_degree=int(config.get("state_degree", 3)),
        output_degree=int(output_degree) if output_degree is not None else None,
        max_iterations=int(config.get("max_iterations", 300)))
    write_json(out / "pnlss.json", model.to_dict())
    report_dict = report.to_dict()
    report_dict["linear_frf_fit_rms"] = frf_rms
    write_json(out / "pnlss_fit_report.json", report_dict)


def cmd_fit_volterra(config: dict, out: Path, seed_override: int | None) -> None:
    _check_schema(config)
    _check_keys(config, {"schema_version", "record", "memory", "degree", "regularizer"})
    rec = _read_record(_require(config, "record"))
    reg_cfg = config.get("regularizer", {})
    _check_keys(reg_cfg, {"scale_1", "decay_1", "corr_1", "scale_2", "decay_2",
                          "corr_2", "tuning", "grid_points", "grid_span"}, "regularizer")
    reg = _config_values(volterra.RegularizerSpec)(**reg_cfg)
    model = volterra.fit_volterra(rec, int(_require(config, "memory")),
                                  int(config.get("degree", 2)), reg)
    write_json(out / "volterra.json", model.to_dict())


def _positive_int(key: str, value) -> int:
    """``value`` of the config field ``key`` as a positive integer."""
    try:
        number = int(value)
    except (TypeError, ValueError):
        number = 0
    if number < 1:
        raise ConfigError(f"config field '{key}' must be a positive integer, got {value!r}")
    return number


def cmd_decouple(config: dict, out: Path, seed_override: int | None) -> None:
    _check_schema(config)
    _check_keys(config, {"schema_version", "polymap", "pnlss", "r", "branch_degree",
                         "num_points", "seed", "mode", "record"})
    seed = seed_override if seed_override is not None else config.get("seed")
    if seed is None:
        raise ConfigError("missing required config field 'seed' (point cloud)")
    try:
        seed = int(seed)
    except (TypeError, ValueError):
        raise ConfigError(f"config field 'seed' must be an integer, got {seed!r}") from None
    r = _positive_int("r", _require(config, "r"))
    num_points = _positive_int("num_points", config.get("num_points", 500))
    branch_degree = config.get("branch_degree")
    if branch_degree is not None:
        branch_degree = _positive_int("branch_degree", branch_degree)
    mode = config.get("mode", "approx")
    source_model = None
    if "polymap" in config:
        f = PolyMap.from_dict(read_json(config["polymap"]))
        points = None
    elif "pnlss" in config:
        source_model = pnlss.PnlssModel.from_dict(read_json(config["pnlss"]))
        if not isinstance(source_model.e_map, PolyMap):
            raise ConfigError("the referenced state-space model has no PolyMap state nonlinearity")
        f = source_model.e_map
        points = None
        if "record" in config:
            rec = _read_record(config["record"])
            sim = pnlss.simulate_pnlss(source_model, rec.input)
            if sim.diverged:
                raise simulators.SimulationDiverged(sim.divergence_index, np.inf)
            points = np.concatenate([sim.x_traj, rec.input[:, None]], axis=1)
    else:
        raise ConfigError("decouple needs either 'polymap' or 'pnlss'")
    kwargs = dict(num_points=num_points, seed=seed, points=points)
    if branch_degree is not None:
        kwargs["branch_degree"] = branch_degree
    if mode == "exact":
        result = decouple_exact(f, r, **kwargs)
    elif mode == "approx":
        result = decouple_approx(f, r, **kwargs)
    else:
        raise ConfigError(f"unknown decouple mode '{mode}'")
    payload = result.function.to_dict()
    payload["residual_max"] = result.residual_max
    payload["residual_rms"] = result.residual_rms
    payload["converged"] = result.converged
    payload["cpd_error"] = result.cpd_error
    payload["cpd_sweeps"] = result.cpd_sweeps
    payload["cpd_stop"] = result.cpd_stop
    write_json(out / "decoupled.json", payload)
    if source_model is not None:
        from dataclasses import replace
        swapped = replace(source_model, e_map=result.function)
        write_json(out / "pnlss_decoupled.json", swapped.to_dict())


def _simulate_model(model_cfg_path: str, rec: signals.SignalRecord):
    payload = read_json(model_cfg_path)
    if "A" in payload:
        model = pnlss.PnlssModel.from_dict(payload)
        sim = pnlss.simulate_pnlss(model, rec.input)
        if sim.diverged:
            raise simulators.SimulationDiverged(sim.divergence_index, np.inf)
        return sim.y, model
    if "na" in payload:
        model = narx_mod.NarxModel.from_dict(payload)
        res = narx_mod.simulate_free_run(model, rec.input, rec.output[: model.na])
        if res.diverged:
            raise simulators.SimulationDiverged(res.divergence_index, np.inf)
        return res.y, model
    if "h1" in payload:
        model = volterra.VolterraModel.from_dict(payload)
        y = volterra.eval_volterra(model, rec.input)
        y[np.isnan(y)] = 0.0
        return y, model
    raise ConfigError(f"unrecognized model file format: {model_cfg_path}")


def cmd_validate(config: dict, out: Path, seed_override: int | None) -> None:
    _check_schema(config)
    _check_keys(config, {"schema_version", "record", "model", "max_lag", "warmup"})
    rec = _read_record(_require(config, "record"))
    y_sim, _ = _simulate_model(_require(config, "model"), rec)
    warmup = int(config.get("warmup", 0))
    max_lag = int(config.get("max_lag", 40))
    report = validate.validation_report(rec.output[warmup:], y_sim[warmup:],
                                        rec.input[warmup:], max_lag)
    write_json(out / "validation.json", report.to_dict())
    lags = np.arange(1, max_lag + 1)
    write_csv(out / "correlations.csv", ["lag", "autocorr", "crosscorr"],
              [lags, report.autocorr, report.crosscorr])


PIPELINE_STAGES = ("design", "simulate", "analyze", "bla", "fit", "validate")


def cmd_pipeline(config: dict, out: Path, seed_override: int | None,
                 resume: bool = False) -> None:
    """Chain design -> simulate -> analyze -> bla -> fit -> validate.

    Each stage writes into its own subdirectory; manifest.json records a hash
    per stage, which covers the previous stage's hash, so a resumed run
    re-executes a missing or changed stage and every stage after it.
    The analysis stage emits the linear-vs-nonlinear verdict.
    """
    _check_schema(config)
    _check_keys(config, {"schema_version", "seed", "excitation", "system", "noise",
                         "num_periods", "discard_periods", "fit", "max_lag",
                         "threshold_db"})
    seed = seed_override if seed_override is not None else config.get("seed")
    if seed is None:
        raise ConfigError("missing required config field 'seed'")
    seed = int(seed)
    excitation = _require(config, "excitation", dict)
    _require_odd_grid(excitation.get("grid_kind", "full"), "pipeline")
    manifest_path = out / "manifest.json"
    manifest = read_json(manifest_path) if (resume and manifest_path.exists()) else {}

    prev_hash = ""

    def run_stage(name: str, payload: dict, outputs: list[str], fn) -> None:
        nonlocal prev_hash
        blob = json.dumps({"stage": name, "cfg": payload, "seed": seed, "prev": prev_hash},
                          sort_keys=True)
        digest = prev_hash = hashlib.sha256(blob.encode()).hexdigest()
        entry = manifest.get(name)
        stage_dir = out / name
        if (resume and entry and entry.get("hash") == digest
                and all((out / p).exists() for p in entry.get("outputs", []))):
            return
        stage_dir.mkdir(parents=True, exist_ok=True)
        fn(stage_dir)
        manifest[name] = {"hash": digest,
                          "outputs": [str(Path(name) / o) for o in outputs]}
        write_json(manifest_path, manifest)

    num_periods = int(config.get("num_periods", 8))
    discard = int(config.get("discard_periods", 2))

    run_stage("design", excitation, ["multisine.json", "signal.csv"],
              lambda d: cmd_design({"schema_version": 1, "excitation": excitation,
                                    "seed": seed, "num_periods": 1}, d, None))
    spec_path = str(out / "design" / "multisine.json")

    sim_cfg = {"schema_version": 1, "system": _require(config, "system", dict),
               "excitation": excitation, "num_periods": num_periods,
               "discard_periods": discard, "noise": config.get("noise", {}),
               "seed": seed}
    run_stage("simulate", sim_cfg, ["record.csv", "record.json"],
              lambda d: cmd_simulate(sim_cfg, d, None))
    record_path = str(out / "simulate" / "record.csv")

    analyze_cfg = {"schema_version": 1, "record": record_path, "spec": spec_path,
                   "threshold_db": config.get("threshold_db", 6.0)}
    run_stage("analyze", analyze_cfg, ["distortion.csv", "analysis.json"],
              lambda d: cmd_analyze(analyze_cfg, d, None))

    analysis = read_json(out / "analyze" / "analysis.json")
    headroom = max(analysis["even_median_excess_db"], analysis["odd_median_excess_db"])
    if headroom <= analyze_cfg["threshold_db"]:
        verdict = "linear adequate"
    else:
        verdict = f"nonlinear recommended, headroom {headroom:.1f} dB"

    bla_cfg = {"schema_version": 1, "records": [record_path], "spec": spec_path}
    run_stage("bla", bla_cfg, ["bla.json", "bla.csv"],
              lambda d: cmd_bla(bla_cfg, d, None))

    fit_cfg = dict(config.get("fit", {"type": "narx", "na": 2, "nb": 2, "degree": 3}))
    fit_type = fit_cfg.pop("type", "narx")
    model_file = {"narx": "narx.json", "pnlss": "pnlss.json", "volterra": "volterra.json"}
    if fit_type == "narx":
        stage_cfg = {"schema_version": 1, "record": record_path, **fit_cfg}
        run_stage("fit", stage_cfg, [model_file[fit_type]],
                  lambda d: cmd_fit_narx(stage_cfg, d, None))
    elif fit_type == "pnlss":
        stage_cfg = {"schema_version": 1, "record": record_path, "spec": spec_path, **fit_cfg}
        run_stage("fit", stage_cfg, [model_file[fit_type]],
                  lambda d: cmd_fit_pnlss(stage_cfg, d, None))
    elif fit_type == "volterra":
        stage_cfg = {"schema_version": 1, "record": record_path, **fit_cfg}
        run_stage("fit", stage_cfg, [model_file[fit_type]],
                  lambda d: cmd_fit_volterra(stage_cfg, d, None))
    else:
        raise ConfigError(f"unknown fit type '{fit_type}'")

    validate_cfg = {"schema_version": 1, "record": record_path,
                    "model": str(out / "fit" / model_file[fit_type]),
                    "max_lag": config.get("max_lag", 40),
                    "warmup": 64}
    run_stage("validate", validate_cfg, ["validation.json", "correlations.csv"],
              lambda d: cmd_validate(validate_cfg, d, None))

    validation = read_json(out / "validate" / "validation.json")
    write_json(out / "pipeline_summary.json", {
        "verdict": verdict,
        "headroom_db": headroom,
        "fit_type": fit_type,
        "fit_percent": validation["fit_percent"],
        "rms_error": validation["rms_error"],
        "whiteness_pass": validation["whiteness_pass"],
        "crosscorr_pass": validation["crosscorr_pass"],
    })


COMMANDS = {
    "design": cmd_design,
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "bla": cmd_bla,
    "fit-narx": cmd_fit_narx,
    "fit-pnlss": cmd_fit_pnlss,
    "fit-volterra": cmd_fit_volterra,
    "decouple": cmd_decouple,
    "validate": cmd_validate,
    "pipeline": cmd_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="nlsid",
                                     description="nonlinear system identification toolkit")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--resume", action="store_true",
                        help="pipeline only: skip stages already in the manifest")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        handler = COMMANDS[args.command]
        if args.command == "pipeline":
            handler(config, out, args.seed, resume=args.resume)
        else:
            handler(config, out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except simulators.SimulationDiverged as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 4
    except (np.linalg.LinAlgError, FloatingPointError, RuntimeError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
