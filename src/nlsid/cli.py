"""Batch command-line front end.

Wires the library into a file-based workflow: design an excitation, simulate a
benchmark system, run the nonparametric analysis, estimate the BLA and the
parametric models, decouple, validate.  Every command reads a JSON config
(``--config``), writes into ``--out``, and is deterministic given its seeds,
producing byte-identical reports on reruns.

``_field`` reads every config value and ``_load`` every input file.  A missing
or mistyped field, a value out of range, or an input file that does not load
is a config error, found before a command (or a pipeline stage) writes.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 divergence.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import bla as bla_mod
from . import narx as narx_mod
from . import nonparam, pnlss, signals, simulators, validate, volterra
from .decouple import decouple_approx
from .polybasis import PolyMap
from .serialize import (read_json, read_signal_record, write_csv, write_json,
                        write_signal_record)

SCHEMA_VERSION = 1
PIPELINE_WARMUP = 64  # samples the pipeline's validate stage leaves out
_REQUIRED = object()


class ConfigError(ValueError):
    """Malformed or incomplete run configuration (exit code 2)."""


_KINDS = {int: "an integer", float: "a finite number", bool: "true or false",
          str: "a string", dict: "an object", list: "a list"}


def _field(config: dict, key: str, kind, default=_REQUIRED, minimum=None):
    """``config[key]``, or ``default`` when the key is absent.  ``kind`` is the
    JSON type the value must have: ``int`` (so not ``1.5``), ``float`` (any
    finite number, returned as a float), ``bool``, ``str``, ``dict``, ``list``,
    or ``[kind]`` for a list of them; a boolean is not a number, and null is
    absent where ``default`` is None.  A missing required key, another type, a
    non-finite number or an integer below ``minimum`` is a config error."""
    if key not in config or (config[key] is None and default is None):
        if default is _REQUIRED:
            raise ConfigError(f"missing required config field '{key}'")
        return default
    value = config[key]
    if isinstance(kind, list):
        if isinstance(value, list) and all(_fits(v, kind[0]) for v in value):
            return [float(v) if kind[0] is float else v for v in value]
        expected = f"a list, each item {_KINDS[kind[0]]}"
    elif _fits(value, kind) and (minimum is None or value >= minimum):
        return float(value) if kind is float else value
    else:
        expected = (_KINDS[kind] if minimum is None else {0: "a nonnegative integer",
                    1: "a positive integer"}.get(minimum, f"an integer of at least {minimum}"))
    raise ConfigError(f"config field '{key}' must be {expected}, got {value!r}")


def _fits(value, kind) -> bool:
    if kind not in (int, float):
        return isinstance(value, kind)
    return (isinstance(value, (int, float) if kind is float else int)
            and not isinstance(value, bool) and abs(value) <= sys.float_info.max)


def _check_keys(config: dict, allowed: set, where: str = "config"):
    unknown = set(config) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {sorted(unknown)}")


def _check_config(config: dict, keys: set):
    """A run config: the supported ``schema_version`` and no key outside ``keys``."""
    version = _field(config, "schema_version", int)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version} (expected {SCHEMA_VERSION})")
    _check_keys(config, keys | {"schema_version"})


def _config_values(build):
    """Report a value that ``build`` rejects as a config error (exit 2), not
    as a numeric failure (exit 3)."""
    def checked(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except (TypeError, ValueError) as exc:  # ConfigError is a ValueError
            raise ConfigError(str(exc)) from exc
    return checked


def _seed(config: dict, seed_override: int | None) -> int:
    """The run's seed: ``--seed`` when given, else the config's ``seed``."""
    return _field(config if seed_override is None else {"seed": seed_override}, "seed", int,
                  minimum=0)


def _load(key: str, path: str, parse=None):
    """The file ``path`` named by the config field ``key``: a signal record, or
    ``parse`` of its JSON payload; one that does not load is a config error.
    The readers are looked up per call, so tracers and test doubles see it."""
    try:
        return read_signal_record(path) if parse is None else parse(read_json(path))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{key} {path} does not load: {exc}") from exc


def _json_object(payload):
    if not isinstance(payload, dict):
        raise TypeError(f"expected a JSON object, got {type(payload).__name__}")
    return payload


def _stage_record(config: dict, record: signals.SignalRecord | None) -> signals.SignalRecord:
    """``record``, or the config's ``record`` file when the caller has not read it."""
    return record if record is not None else _load("record", _field(config, "record", str))


def _check_longer(samples: int, max_lag: int, source: str) -> None:
    if samples <= max_lag:
        raise ConfigError(f"record of {samples} samples is too short for lag {max_lag} ({source})")


def _check_validated(samples: int, warmup: int, max_lag: int, after: str) -> None:
    # the residual tests of validate need more than 10 * max_lag samples after the warmup
    if samples - warmup <= 10 * max_lag:
        raise ConfigError(f"config field 'max_lag' ({max_lag}) needs more than {10 * max_lag} "
                          f"samples after {after}, the record has {samples}")


def _check_retained(rec: signals.SignalRecord, discard: int) -> None:
    if rec.num_periods - discard < 2:
        raise ConfigError(f"config field 'discard_periods' ({discard}) must leave at least 2 of "
                          f"the record's {rec.num_periods} periods")


def _check_state_dim(spec: signals.MultisineSpec, state_dim: int) -> None:
    lines = len(spec.excited_lines)
    if lines < 2 * state_dim:
        raise ConfigError(f"config field 'state_dim' ({state_dim}) needs at least 2 * state_dim "
                          f"excited lines, the spec has {lines}")


@_config_values
def _build_spec(cfg: dict, seed: int) -> signals.MultisineSpec:
    _check_keys(cfg, {"fs", "period_samples", "grid_kind", "k_max", "lines",
                      "rms", "group_size"}, "excitation")
    fs = _field(cfg, "fs", float)
    n = _field(cfg, "period_samples", int, minimum=1)
    kind = _field(cfg, "grid_kind", str, "full")
    rms = _field(cfg, "rms", float, 1.0)
    if "lines" in cfg:
        lines = tuple(_field(cfg, "lines", [int]))
    else:
        k_max = _field(cfg, "k_max", int)
        if kind == "full":
            lines = signals.full_grid(n, k_max)
        elif kind == "odd_only":
            lines = signals.odd_grid(n, k_max)
        elif kind == "odd_random_skip":
            lines, _ = signals.odd_random_skip_grid(n, k_max, seed,
                                                    _field(cfg, "group_size", int, 4, minimum=1))
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
    _check_config(config, {"excitation", "seed", "num_periods"})
    num_periods = _field(config, "num_periods", int, 1, minimum=1)
    spec = _build_spec(_field(config, "excitation", dict), _seed(config, seed_override))
    u = signals.design_multisine(spec, num_periods)
    write_json(out / "multisine.json", spec.to_dict())
    rec = signals.SignalRecord(spec.sample_rate_hz, spec.period_samples, num_periods,
                               u, np.zeros_like(u), label="designed excitation")
    write_signal_record(out / "signal.csv", rec)


@_config_values
def _build_noise(cfg: dict, seed: int) -> simulators.NoiseSpec:
    _check_keys(cfg, {"measurement_std", "process_std", "process_entry"}, "noise")
    return simulators.NoiseSpec(measurement_std=_field(cfg, "measurement_std", float, 0.0),
                                process_std=_field(cfg, "process_std", float, 0.0),
                                process_entry=_field(cfg, "process_entry", str, "none"),
                                seed=seed)


@_config_values
def _build_system(cfg: dict, noise: simulators.NoiseSpec):
    """The simulator ``system(u, fs)`` that ``cfg`` names, applying ``noise``."""
    kind = _field(cfg, "type", str)
    if kind == "duffing":
        simulators.reject_process_noise(noise, "Duffing")
        _check_keys(cfg, {"type", "c", "k1", "k3", "b", "oversample", "resonance_frac",
                          "damping_ratio", "hardening", "fs"}, "system")
        oversample = _field(cfg, "oversample", int, 16, minimum=1)
        if "k1" in cfg:
            params = simulators.DuffingParams(
                **{k: _field(cfg, k, float) for k in ("c", "k1", "k3")},
                b=_field(cfg, "b", float, 1.0), oversample=oversample)
        else:
            params = simulators.default_duffing(
                _field(cfg, "fs", float),
                resonance_frac=_field(cfg, "resonance_frac", float, 0.1),
                damping_ratio=_field(cfg, "damping_ratio", float, 0.05),
                hardening=_field(cfg, "hardening", float, 1.0),
                oversample=oversample)
        return lambda u, fs: simulators.simulate_duffing(params, u, fs, noise)
    if kind == "tanks":
        simulators.reject_process_noise(noise, "tanks")
        _check_keys(cfg, {"type", "k1", "k2", "k3", "k4", "x1_max", "x2_max",
                          "spill_fraction", "oversample"}, "system")
        params = simulators.TanksParams(
            **{k: _field(cfg, k, float) for k in ("k1", "k2", "k3", "k4", "x1_max", "x2_max")},
            spill_fraction=_field(cfg, "spill_fraction", float, 0.5),
            oversample=_field(cfg, "oversample", int, 16, minimum=1))
        return lambda u, fs: simulators.simulate_tanks(params, u, fs, noise)
    if kind == "static":
        _check_keys(cfg, {"type", "coefficients"}, "system")
        coeffs = _field(cfg, "coefficients", [float])
        return lambda u, fs: simulators.simulate_static(coeffs, u, noise, fs)
    if kind == "block_oriented":
        _check_keys(cfg, {"type", "structure", "blocks", "nonlinearity"}, "system")
        blocks = tuple(simulators.LinearBlock(tuple(_field(b, "b", [float])),
                                              tuple(_field(b, "a", [float])))
                       for b in _field(cfg, "blocks", [dict]))
        spec = simulators.BlockOrientedSpec(_field(cfg, "structure", str), blocks,
                                            tuple(_field(cfg, "nonlinearity", [float])))
        return lambda u, fs: simulators.simulate_block_oriented(spec, u, noise, fs)
    raise ConfigError(f"unknown system type '{kind}'")


def cmd_simulate(config: dict, out: Path, seed_override: int | None) -> None:
    _check_config(config, {"system", "excitation", "input_csv", "num_periods", "discard_periods",
                           "noise", "seed"})
    seed = _seed(config, seed_override)
    noise = _build_noise(_field(config, "noise", dict, {}), seed)
    system = _build_system(_field(config, "system", dict), noise)
    num_periods = _field(config, "num_periods", int, 2, minimum=1)
    discard = _field(config, "discard_periods", int, 1, minimum=0)
    if "excitation" in config:
        spec = _build_spec(_field(config, "excitation", dict), seed)
        u_period = signals.design_multisine(spec)
        fs = spec.sample_rate_hz
        write_json(out / "multisine.json", spec.to_dict())
    elif "input_csv" in config:
        rec_in = _load("input_csv", _field(config, "input_csv", str))
        u_period = rec_in.input[: rec_in.period_samples]
        fs = rec_in.sample_rate_hz
    else:
        raise ConfigError("simulate needs either 'excitation' or 'input_csv'")
    rec = simulators.steady_state_record(system, u_period, fs, num_periods, discard)
    write_signal_record(out / "record.csv", rec)


def cmd_analyze(config: dict, out: Path, seed_override: int | None,
                record: signals.SignalRecord | None = None) -> None:
    _check_config(config, {"record", "spec", "discard_periods", "threshold_db",
                           "smoothing_window"})
    discard = _field(config, "discard_periods", int, 0, minimum=0)
    threshold = _field(config, "threshold_db", float, nonparam.DISTORTION_THRESHOLD_DB)
    smoothing_window = _field(config, "smoothing_window", int, None, minimum=1)
    rec = _stage_record(config, record)
    _check_retained(rec, discard)
    if smoothing_window is not None and smoothing_window > rec.period_samples:
        raise ConfigError(f"config field 'smoothing_window' ({smoothing_window}) must be at most "
                          f"the record's period of {rec.period_samples} samples")
    spec = _load("spec", _field(config, "spec", str), signals.MultisineSpec.from_dict)
    _require_odd_grid(spec.grid_kind, "analyze")
    report = nonparam.classify_lines(spec, nonparam.sample_statistics(rec, discard))
    tiny = np.finfo(float).tiny
    write_csv(out / "distortion.csv", ["freq_hz", "class", "magnitude_db", "floor_db"],
              [report.frequency_hz, report.classes,
               *(20.0 * np.log10(np.maximum(x, tiny))
                 for x in (report.magnitude, report.noise_floor))])
    summary = {"threshold_db": threshold}
    for name, line_class in (("even", "even"), ("odd", "odd_detection")):
        excess = report.excess_db(line_class)
        summary[f"{name}_median_excess_db"] = float(np.median(excess)) if len(excess) else 0.0
        summary[f"{name}_distorted_fraction"] = (
            float(np.mean(report.distorted(line_class, threshold))) if len(excess) else 0.0)
    if rec.num_periods >= 4:
        pn = nonparam.detect_process_noise(rec, smoothing_window)
        summary["process_noise_verdict"] = pn.verdict
        summary["stationarity_ratio"] = pn.stationarity_ratio
    write_json(out / "analysis.json", summary)


def cmd_bla(config: dict, out: Path, seed_override: int | None,
            records: list[signals.SignalRecord] | None = None) -> None:
    _check_config(config, {"records", "spec", "discard_periods"})
    discard = _field(config, "discard_periods", int, 0, minimum=0)
    recs = records if records is not None else [
        _load("records", p) for p in _field(config, "records", [str])]
    for rec in recs:
        _check_retained(rec, discard)
    spec = _load("spec", _field(config, "spec", str), signals.MultisineSpec.from_dict)
    model = bla_mod.estimate_bla_spectral(recs, spec, discard)
    write_json(out / "bla.json", model.to_dict())
    write_csv(out / "bla.csv", ["freq_hz", "re_g", "im_g", "var_total", "var_noise"],
              [model.frequency_hz, model.frf.real, model.frf.imag,
               model.frf_variance_total, model.frf_variance_noise])


# A fit command's fields, read first; the pipeline checks its ``fit`` with them.
def _narx_fields(config: dict) -> dict:
    _check_config(config, {"record", "na", "nb", "degree", "direct_term"})
    return {"na": _field(config, "na", int, minimum=0),
            "nb": _field(config, "nb", int, minimum=0),
            "degree": _field(config, "degree", int, minimum=1),
            "direct_term": _field(config, "direct_term", bool, True)}


def cmd_fit_narx(config: dict, out: Path, seed_override: int | None,
                 record: signals.SignalRecord | None = None) -> None:
    fields = _narx_fields(config)
    rec = _stage_record(config, record)
    _check_longer(len(rec.output), max(fields["na"], fields["nb"]), "config fields 'na', 'nb'")
    write_json(out / "narx.json", narx_mod.fit_narx(rec, **fields).to_dict())


def _pnlss_fields(config: dict) -> dict:
    _check_config(config, {"record", "records", "spec", "state_dim", "state_degree",
                           "output_degree", "max_iterations", "lines"})
    return {"state_dim": _field(config, "state_dim", int, 2, minimum=1),
            "state_degree": _field(config, "state_degree", int, 3, minimum=1),
            "output_degree": _field(config, "output_degree", int, None, minimum=1),
            "max_iterations": _field(config, "max_iterations", int, 300, minimum=0),
            "lines": _field(config, "lines", [int], None)}


def cmd_fit_pnlss(config: dict, out: Path, seed_override: int | None,
                  record: signals.SignalRecord | None = None) -> None:
    fields = _pnlss_fields(config)
    paths = _field(config, "records", [str], None) or [_field(config, "record", str)]
    if len(paths) != 1:
        raise ConfigError("fit-pnlss fits one record: give 'record' or one entry in 'records'")
    spec = _load("spec", _field(config, "spec", str), signals.MultisineSpec.from_dict)
    _check_state_dim(spec, fields["state_dim"])
    rec = record if record is not None else _load("record", paths[0])
    lin, frf_rms = pnlss.init_linear_from_bla(bla_mod.estimate_bla_spectral([rec], spec),
                                              fields.pop("state_dim"))
    lines = fields.pop("lines")
    model, report = pnlss.fit_pnlss(
        lin, rec, np.asarray(list(spec.excited_lines) if lines is None else lines, dtype=int),
        **fields)
    write_json(out / "pnlss.json", model.to_dict())
    write_json(out / "pnlss_fit_report.json", {**asdict(report), "linear_frf_fit_rms": frf_rms})


def _volterra_fields(config: dict) -> dict:
    _check_config(config, {"record", "memory", "degree", "regularizer"})
    degree = _field(config, "degree", int, 2, minimum=1)
    if degree > 2:
        raise ConfigError(f"config field 'degree' must be 1 or 2, got {degree}")
    reg_cfg = _field(config, "regularizer", dict, {})
    _check_keys(reg_cfg, {"scale_1", "decay_1", "corr_1", "scale_2", "decay_2",
                          "corr_2", "tuning", "grid_points", "grid_span"}, "regularizer")
    return {"m": _field(config, "memory", int, minimum=1), "degree": degree,
            "reg": _config_values(volterra.RegularizerSpec)(**reg_cfg)}


def cmd_fit_volterra(config: dict, out: Path, seed_override: int | None,
                     record: signals.SignalRecord | None = None) -> None:
    fields = _volterra_fields(config)
    rec = _stage_record(config, record)
    write_json(out / "volterra.json", volterra.fit_volterra(rec, **fields).to_dict())


def cmd_decouple(config: dict, out: Path, seed_override: int | None) -> None:
    _check_config(config, {"polymap", "pnlss", "r", "branch_degree", "num_points", "seed",
                           "record"})
    seed = _seed(config, seed_override)
    r = _field(config, "r", int, minimum=1)
    num_points = _field(config, "num_points", int, 500, minimum=1)
    branch_degree = _field(config, "branch_degree", int, None, minimum=1)
    source_model = points = None
    if "polymap" in config:
        f = _load("polymap", _field(config, "polymap", str), PolyMap.from_dict)
    elif "pnlss" in config:
        source_model = _load("pnlss", _field(config, "pnlss", str), pnlss.PnlssModel.from_dict)
        if not isinstance(source_model.e_map, PolyMap):
            raise ConfigError("the referenced state-space model has no PolyMap state nonlinearity")
        f = source_model.e_map
        if "record" in config:
            rec = _load("record", _field(config, "record", str))
            sim = pnlss.simulate_pnlss(source_model, rec.input)
            if sim.diverged:
                raise simulators.SimulationDiverged(sim.divergence_index)
            points = np.concatenate([sim.x_traj, rec.input[:, None]], axis=1)
    else:
        raise ConfigError("decouple needs either 'polymap' or 'pnlss'")
    result = decouple_approx(f, r, num_points=num_points, seed=seed,
                             branch_degree=branch_degree, points=points)
    write_json(out / "decoupled.json", {
        **result.function.to_dict(),
        **{k: v for k, v in vars(result).items() if k != "function"}})
    if source_model is not None:
        swapped = replace(source_model, e_map=result.function)
        write_json(out / "pnlss_decoupled.json", swapped.to_dict())


def _model(payload: dict):
    """The PNLSS, NARX or Volterra model that a model file holds."""
    for key, cls in (("A", pnlss.PnlssModel), ("na", narx_mod.NarxModel),
                     ("h1", volterra.VolterraModel)):
        if key in payload:
            return cls.from_dict(payload)
    raise ValueError("unrecognized model file format")


def _simulate(model, rec: signals.SignalRecord) -> np.ndarray:
    """``model``'s output for ``rec``'s input.  A NARX free run starts at its
    maximum lag from the record's outputs before it."""
    if isinstance(model, volterra.VolterraModel):
        y = volterra.eval_volterra(model, rec.input)
        y[np.isnan(y)] = 0.0
        return y
    if isinstance(model, narx_mod.NarxModel):
        lag = model.max_lag
        sim = narx_mod.simulate_free_run(model, rec.input, rec.output[lag - model.na : lag])
    else:
        sim = pnlss.simulate_pnlss(model, rec.input)
    if sim.diverged:
        raise simulators.SimulationDiverged(sim.divergence_index)
    return sim.y


def cmd_validate(config: dict, out: Path, seed_override: int | None,
                 record: signals.SignalRecord | None = None) -> None:
    _check_config(config, {"record", "model", "max_lag", "warmup"})
    warmup = _field(config, "warmup", int, 0, minimum=0)
    max_lag = _field(config, "max_lag", int, 40, minimum=1)
    rec = _stage_record(config, record)
    model = _load("model", _field(config, "model", str), _model)
    if isinstance(model, narx_mod.NarxModel):
        _check_longer(len(rec.output), model.max_lag, "the model's maximum lag")
    _check_validated(len(rec.output), warmup, max_lag, f"config field 'warmup' ({warmup})")
    y_sim = _simulate(model, rec)
    report = validate.validation_report(rec.output[warmup:], y_sim[warmup:],
                                        rec.input[warmup:], max_lag)
    write_json(out / "validation.json", asdict(report))
    write_csv(out / "correlations.csv", ["lag", "autocorr", "crosscorr"],
              [np.arange(1, max_lag + 1), report.autocorr, report.crosscorr])


def cmd_pipeline(config: dict, out: Path, seed_override: int | None,
                 resume: bool = False) -> None:
    """Chain design -> simulate -> analyze -> bla -> fit -> validate.

    Each stage writes into its own subdirectory; manifest.json records a hash
    per stage, which covers the previous stage's hash, so a resumed run
    re-executes a missing or changed stage and every stage after it.
    The pipeline's own fields, its ``excitation``, ``system`` and ``noise``
    objects and its ``fit`` object are read, and the record length checked
    against a NARX fit's lags and ``max_lag``, before the first stage runs.
    The stages after ``simulate`` share one parse of its record, made when
    the first of them runs.  The analysis stage emits the
    linear-vs-nonlinear verdict.
    """
    _check_config(config, {"seed", "excitation", "system", "noise", "num_periods",
                           "discard_periods", "fit", "max_lag", "threshold_db"})
    seed = _seed(config, seed_override)
    excitation = _field(config, "excitation", dict)
    spec = _build_spec(excitation, seed)
    _require_odd_grid(spec.grid_kind, "pipeline")
    system = _field(config, "system", dict)
    noise = _field(config, "noise", dict, {})
    _build_system(system, _build_noise(noise, seed))
    num_periods = _field(config, "num_periods", int, 8, minimum=2)
    discard = _field(config, "discard_periods", int, 2, minimum=0)
    threshold = _field(config, "threshold_db", float, 6.0)
    max_lag = _field(config, "max_lag", int, 40, minimum=1)
    fit_cfg = dict(_field(config, "fit", dict, {"type": "narx", "na": 2, "nb": 2, "degree": 3}))
    fit_type = _field(fit_cfg, "type", str, "narx")
    fit_cfg.pop("type", None)
    spec_path = str(out / "design" / "multisine.json")
    record_path = str(out / "simulate" / "record.csv")
    # command, field reader, model file and the stage keys beyond schema_version and record
    fits = {"narx": (cmd_fit_narx, _narx_fields, "narx.json", {}),
            "pnlss": (cmd_fit_pnlss, _pnlss_fields, "pnlss.json", {"spec": spec_path}),
            "volterra": (cmd_fit_volterra, _volterra_fields, "volterra.json", {})}
    if fit_type not in fits:
        raise ConfigError(f"unknown fit type '{fit_type}'")
    fit_cmd, fit_fields, model_file, extra = fits[fit_type]
    fit_stage_cfg = {"schema_version": 1, "record": record_path, **extra, **fit_cfg}
    fields = fit_fields(fit_stage_cfg)
    if fit_type == "pnlss":
        _check_state_dim(spec, fields["state_dim"])
    samples = num_periods * spec.period_samples
    if fit_type == "narx":
        _check_longer(samples, max(fields["na"], fields["nb"]), "config fields 'na', 'nb'")
    _check_validated(samples, PIPELINE_WARMUP, max_lag,
                     f"the pipeline's {PIPELINE_WARMUP}-sample warmup")
    manifest_path = out / "manifest.json"
    manifest = (_load("manifest", manifest_path, _json_object)
                if (resume and manifest_path.exists()) else {})

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

    run_stage("design", excitation, ["multisine.json", "signal.csv"],
              lambda d: cmd_design({"schema_version": 1, "excitation": excitation,
                                    "seed": seed, "num_periods": 1}, d, None))

    sim_cfg = {"schema_version": 1, "system": system, "excitation": excitation,
               "num_periods": num_periods, "discard_periods": discard, "noise": noise,
               "seed": seed}
    run_stage("simulate", sim_cfg, ["record.csv", "record.json"],
              lambda d: cmd_simulate(sim_cfg, d, None))
    record = functools.cache(lambda: _load("record", record_path))

    analyze_cfg = {"schema_version": 1, "record": record_path, "spec": spec_path,
                   "threshold_db": threshold}
    run_stage("analyze", analyze_cfg, ["distortion.csv", "analysis.json"],
              lambda d: cmd_analyze(analyze_cfg, d, None, record()))

    analysis = read_json(out / "analyze" / "analysis.json")
    headroom = max(analysis["even_median_excess_db"], analysis["odd_median_excess_db"])
    verdict = ("linear adequate" if headroom <= threshold
               else f"nonlinear recommended, headroom {headroom:.1f} dB")

    bla_cfg = {"schema_version": 1, "records": [record_path], "spec": spec_path}
    run_stage("bla", bla_cfg, ["bla.json", "bla.csv"],
              lambda d: cmd_bla(bla_cfg, d, None, [record()]))

    run_stage("fit", fit_stage_cfg, [model_file],
              lambda d: fit_cmd(fit_stage_cfg, d, None, record()))

    validate_cfg = {"schema_version": 1, "record": record_path,
                    "model": str(out / "fit" / model_file), "max_lag": max_lag,
                    "warmup": PIPELINE_WARMUP}
    run_stage("validate", validate_cfg, ["validation.json", "correlations.csv"],
              lambda d: cmd_validate(validate_cfg, d, None, record()))

    validation = read_json(out / "validate" / "validation.json")
    write_json(out / "pipeline_summary.json", {
        "verdict": verdict, "headroom_db": headroom, "fit_type": fit_type,
        **{k: validation[k] for k in ("fit_percent", "rms_error", "whiteness_pass",
                                      "crosscorr_pass")}})


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
        config = _load("config", args.config, _json_object)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        resume = {"resume": args.resume} if args.command == "pipeline" else {}
        COMMANDS[args.command](config, out, args.seed, **resume)
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
