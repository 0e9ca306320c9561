import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import nlsid
from nlsid.cli import main
from nlsid.decouple import DecoupleResult
from nlsid.narx import NarxModel, simulate_free_run
from nlsid.nonparam import classify_lines, sample_statistics
from nlsid.pnlss import FitReport, PnlssModel
from nlsid.polybasis import PolyMap, enumerate_monomials
from nlsid.serialize import read_json, read_signal_record, write_json, write_signal_record
from nlsid.signals import MultisineSpec, SignalRecord
from nlsid.validate import ValidationReport


def run_cli(*args):
    return main(list(args))


def write_config(tmp_path: Path, name: str, payload: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def design_config(**overrides):
    cfg = {
        "schema_version": 1,
        "seed": 7,
        "excitation": {"fs": 64.0, "period_samples": 64, "grid_kind": "odd_only",
                       "k_max": 21, "rms": 1.0},
    }
    cfg.update(overrides)
    return cfg


def test_design_odd_grid_zero_even_energy(tmp_path):
    cfg = write_config(tmp_path, "design.json", design_config())
    out = tmp_path / "out"
    assert run_cli("design", "--config", cfg, "--out", str(out)) == 0
    rec = read_signal_record(out / "signal.csv")
    bins = np.abs(np.fft.fft(rec.input))
    even = bins[2:32:2]
    assert np.max(even) < 1e-9 * np.max(bins)


def test_design_missing_seed_exit_2(tmp_path, capsys):
    cfg = design_config()
    del cfg["seed"]
    path = write_config(tmp_path, "design.json", cfg)
    assert run_cli("design", "--config", path, "--out", str(tmp_path / "o")) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("k_max", 200, "k_max"),          # past N/2 = 128
    ("rms", "x", "'rms'"),
    ("period_samples", 256.7, "'period_samples'"),
    ("num_periods", "x", "'num_periods'"),
    ("num_periods", 0, "'num_periods'"),
    ("num_periods", 1.5, "'num_periods'"),
])
def test_design_bad_excitation_value_exit_2(tmp_path, capsys, field, value, message):
    cfg = design_config()
    cfg["excitation"] = dict(cfg["excitation"], period_samples=256)
    (cfg if field == "num_periods" else cfg["excitation"])[field] = value
    path = write_config(tmp_path, "design.json", cfg)
    out = tmp_path / "o"
    assert run_cli("design", "--config", path, "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not (out / "signal.csv").exists()


TANKS_SYSTEM = {"type": "tanks", "k1": 0.5, "k2": 0.4, "k3": 0.3, "k4": 1.0,
                "x1_max": 10.0, "x2_max": 10.0}


@pytest.mark.parametrize("system, noise, message", [
    (dict(TANKS_SYSTEM, spill_fraction=2.0), None, "spill_fraction"),
    (TANKS_SYSTEM, {"measurement_std": -1.0}, "nonnegative"),
    ({k: v for k, v in TANKS_SYSTEM.items() if k != "k1"}, None, "'k1'"),
    ({"type": "block_oriented", "structure": "wiener", "blocks": [{"a": [1.0, -0.3]}],
      "nonlinearity": [0.0, 1.0]}, None, "'b'"),
])
def test_simulate_bad_system_or_noise_value_exit_2(tmp_path, capsys, system, noise, message):
    cfg = write_config(tmp_path, "sim.json", simulate_config(system, noise=noise))
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", cfg, "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not (out / "record.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
@pytest.mark.parametrize("system, noise", [
    ({"type": "static", "coefficients": [0.0, 1.0]}, {"process_std": 0.1}),
    ({"type": "duffing", "fs": 128.0, "hardening": 1.0},
     {"process_std": 0.1, "process_entry": "before_nonlinearity"}),
    (TANKS_SYSTEM, {"process_std": 0.1, "process_entry": "before_nonlinearity"}),
], ids=["static-entry-none", "duffing", "tanks"])
def test_process_noise_no_simulator_applies_exit_2(tmp_path, capsys, command, system, noise):
    base = simulate_config(system) if command == "simulate" else PIPE_CFG
    cfg = write_config(tmp_path, "cfg.json", dict(base, system=system, noise=noise))
    out = tmp_path / "o"
    assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "process_std" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def _fit_volterra_exit_code(tmp_path, regularizer: dict) -> int:
    rng = np.random.default_rng(0)
    write_signal_record(tmp_path / "rec.csv",
                        SignalRecord(1.0, 64, 2, rng.normal(size=128), rng.normal(size=128)))
    cfg = write_config(tmp_path, "vol.json", {
        "schema_version": 1, "record": str(tmp_path / "rec.csv"), "memory": 4,
        "regularizer": regularizer,
    })
    code = run_cli("fit-volterra", "--config", cfg, "--out", str(tmp_path / "vol"))
    assert not (tmp_path / "vol" / "volterra.json").exists()
    return code


def test_fit_volterra_bad_regularizer_value_exit_2(tmp_path, capsys):
    assert _fit_volterra_exit_code(tmp_path, {"tuning": "bogus"}) == 2
    assert "tuning" in capsys.readouterr().err


@pytest.mark.parametrize("regularizer", [
    {"scale_1": "x"},
    {"tuning": "marginal_likelihood_grid", "grid_points": "x"},
])
def test_fit_volterra_non_numeric_regularizer_exit_2(tmp_path, capsys, regularizer):
    assert _fit_volterra_exit_code(tmp_path, regularizer) == 2
    assert next(iter(regularizer.keys() - {"tuning"})) in capsys.readouterr().err


def test_fit_pnlss_rejects_more_than_one_record(tmp_path, capsys):
    design_out = tmp_path / "design"
    cfg = write_config(tmp_path, "design.json", design_config())
    assert run_cli("design", "--config", cfg, "--out", str(design_out)) == 0
    record = str(design_out / "signal.csv")
    cfg = write_config(tmp_path, "pnlss.json", {
        "schema_version": 1, "spec": str(design_out / "multisine.json"),
        "records": [record, record],
    })
    out = tmp_path / "pnlss"
    assert run_cli("fit-pnlss", "--config", cfg, "--out", str(out)) == 2
    assert "one record" in capsys.readouterr().err
    assert not (out / "pnlss.json").exists()


def test_design_brain_grid_exact_lines(tmp_path):
    # explicit odd lines 1..23 with 17 and 21 left out
    lines = [1, 3, 5, 7, 9, 11, 13, 15, 19, 23]
    cfg = design_config()
    cfg["excitation"] = {"fs": 64.0, "period_samples": 64,
                         "grid_kind": "odd_random_skip", "lines": lines, "rms": 1.0}
    path = write_config(tmp_path, "design.json", cfg)
    out = tmp_path / "out"
    assert run_cli("design", "--config", path, "--out", str(out)) == 0
    spec = read_json(out / "multisine.json")
    assert [int(k) for k in spec["excited_lines"]] == lines


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = design_config(typo_field=1)
    path = write_config(tmp_path, "design.json", cfg)
    assert run_cli("design", "--config", path, "--out", str(tmp_path / "o")) == 2
    assert "typo_field" in capsys.readouterr().err


def test_bad_schema_version_rejected(tmp_path):
    cfg = design_config(schema_version=99)
    path = write_config(tmp_path, "design.json", cfg)
    assert run_cli("design", "--config", path, "--out", str(tmp_path / "o")) == 2


def test_design_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "design.json", design_config())
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli("design", "--config", cfg, "--out", str(out_a)) == 0
    assert run_cli("design", "--config", cfg, "--out", str(out_b)) == 0
    for name in ("multisine.json", "signal.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def simulate_config(system, seed=3, noise=None, **overrides):
    cfg = {
        "schema_version": 1,
        "seed": seed,
        "system": system,
        "excitation": {"fs": 128.0, "period_samples": 256, "grid_kind": "odd_random_skip",
                       "k_max": 51, "rms": 0.4},
        "num_periods": 8,
        "discard_periods": 2,
    }
    if noise:
        cfg["noise"] = noise
    cfg.update(overrides)
    return cfg


def test_simulate_then_analyze_even_verdict(tmp_path):
    sim_cfg = write_config(tmp_path, "sim.json", simulate_config(
        {"type": "static", "coefficients": [0.0, 1.0, 0.15]},
        noise={"measurement_std": 1e-3},
    ))
    sim_out = tmp_path / "sim"
    assert run_cli("simulate", "--config", sim_cfg, "--out", str(sim_out)) == 0
    an_cfg = write_config(tmp_path, "an.json", {
        "schema_version": 1,
        "record": str(sim_out / "record.csv"),
        "spec": str(sim_out / "multisine.json"),
    })
    an_out = tmp_path / "an"
    assert run_cli("analyze", "--config", an_cfg, "--out", str(an_out)) == 0
    summary = read_json(an_out / "analysis.json")
    assert summary["even_median_excess_db"] > 20.0
    assert summary["odd_median_excess_db"] < 6.0
    assert (an_out / "distortion.csv").exists()


def reference_distortion_csv(report) -> str:
    """The per-row writer the dB columns replaced: ``max`` and ``log10`` on
    one line's magnitude and floor at a time."""
    tiny = np.finfo(float).tiny
    rows = ["freq_hz,class,magnitude_db,floor_db"]
    for f, c, m, nf in zip(report.frequency_hz, report.classes, report.magnitude,
                           report.noise_floor):
        rows.append(f"{f:.17g},{c},{20.0 * np.log10(max(m, tiny)):.17g},"
                    f"{20.0 * np.log10(max(nf, tiny)):.17g}")
    return "\n".join(rows) + "\n"


def test_distortion_csv_bytes_equal_the_row_loop(tmp_path):
    # every period is half-wave antisymmetric, y[n + N/2] = -y[n], so its
    # even lines are exactly zero: their magnitude and floor take the clamp
    design_out = tmp_path / "design"
    assert run_cli("design", "--config", write_config(tmp_path, "design.json", design_config()),
                   "--out", str(design_out)) == 0
    spec = MultisineSpec.from_dict(read_json(design_out / "multisine.json"))
    n, periods = spec.period_samples, 8
    rng = np.random.default_rng(4)
    halves = rng.normal(size=n // 2) + 1e-3 * rng.normal(size=(periods, n // 2))
    y = np.concatenate([halves, -halves], axis=1).ravel()
    rec = SignalRecord(spec.sample_rate_hz, n, periods, rng.normal(size=n * periods), y)
    write_signal_record(tmp_path / "rec.csv", rec)
    cfg = write_config(tmp_path, "an.json", {"schema_version": 1,
                                             "record": str(tmp_path / "rec.csv"),
                                             "spec": str(design_out / "multisine.json")})
    assert run_cli("analyze", "--config", cfg, "--out", str(tmp_path / "an")) == 0
    report = classify_lines(spec, sample_statistics(read_signal_record(tmp_path / "rec.csv")))
    even = report.classes == "even"
    assert np.all(report.magnitude[even] == 0.0) and np.all(report.noise_floor[even] == 0.0)
    assert np.all(report.magnitude[~even] > 0.0) and np.all(report.noise_floor[~even] > 0.0)
    assert (tmp_path / "an" / "distortion.csv").read_text() == reference_distortion_csv(report)


def test_analyze_full_grid_exit_2(tmp_path, capsys):
    sim_cfg = write_config(tmp_path, "sim.json", simulate_config(
        {"type": "static", "coefficients": [0.0, 1.0, 0.15]},
        excitation={"fs": 128.0, "period_samples": 256, "grid_kind": "full",
                    "k_max": 51, "rms": 0.4},
    ))
    sim_out = tmp_path / "sim"
    assert run_cli("simulate", "--config", sim_cfg, "--out", str(sim_out)) == 0
    an_cfg = write_config(tmp_path, "an.json", {
        "schema_version": 1,
        "record": str(sim_out / "record.csv"),
        "spec": str(sim_out / "multisine.json"),
    })
    an_out = tmp_path / "an"
    assert run_cli("analyze", "--config", an_cfg, "--out", str(an_out)) == 2
    assert "odd excitation grid" in capsys.readouterr().err
    assert not (an_out / "analysis.json").exists()


def test_simulate_divergence_exit_4(tmp_path):
    cfg = write_config(tmp_path, "sim.json", simulate_config(
        {"type": "duffing", "c": 0.001, "k1": 1.0, "k3": -50.0, "b": 1.0,
         "oversample": 8},
        excitation={"fs": 128.0, "period_samples": 256, "grid_kind": "full",
                    "k_max": 10, "rms": 10.0},
    ))
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 4


def test_bla_and_fit_narx_flow(tmp_path):
    sim_cfg = write_config(tmp_path, "sim.json", simulate_config(
        {"type": "duffing", "fs": 128.0, "hardening": 0.1},
        noise={"measurement_std": 1e-4},
        excitation={"fs": 128.0, "period_samples": 256, "grid_kind": "full",
                    "k_max": 40, "rms": 0.1},
    ))
    sim_out = tmp_path / "sim"
    assert run_cli("simulate", "--config", sim_cfg, "--out", str(sim_out)) == 0

    bla_cfg = write_config(tmp_path, "bla.json", {
        "schema_version": 1,
        "records": [str(sim_out / "record.csv")],
        "spec": str(sim_out / "multisine.json"),
    })
    bla_out = tmp_path / "bla"
    assert run_cli("bla", "--config", bla_cfg, "--out", str(bla_out)) == 0
    assert (bla_out / "bla.csv").exists()
    payload = read_json(bla_out / "bla.json")
    assert len(payload["lines"]) == 40

    narx_cfg = write_config(tmp_path, "narx.json", {
        "schema_version": 1,
        "record": str(sim_out / "record.csv"),
        "na": 2, "nb": 2, "degree": 3,
    })
    narx_out = tmp_path / "narx"
    assert run_cli("fit-narx", "--config", narx_cfg, "--out", str(narx_out)) == 0

    val_cfg = write_config(tmp_path, "val.json", {
        "schema_version": 1,
        "record": str(sim_out / "record.csv"),
        "model": str(narx_out / "narx.json"),
        "max_lag": 20,
        "warmup": 16,
    })
    val_out = tmp_path / "val"
    assert run_cli("validate", "--config", val_cfg, "--out", str(val_out)) == 0
    report = read_json(val_out / "validation.json")
    assert report["fit_percent"] > 80.0


def test_validate_seeds_the_narx_free_run_with_the_samples_before_it(tmp_path):
    # with nb > na the free run starts at max_lag, so y_init is the na
    # samples just before it, not the first na of the record
    rng = np.random.default_rng(11)
    basis = enumerate_monomials(3, 0, 2)
    model = NarxModel(1, 2, False, PolyMap(basis, 0.1 * rng.normal(size=(1, len(basis)))))
    u = 0.5 * rng.normal(size=256)
    y = simulate_free_run(model, u, y_init=np.array([0.3])).y
    write_signal_record(tmp_path / "record.csv", SignalRecord(1.0, 256, 1, u, y))
    write_json(tmp_path / "narx.json", model.to_dict())
    cfg = write_config(tmp_path, "val.json", {
        "schema_version": 1, "record": str(tmp_path / "record.csv"),
        "model": str(tmp_path / "narx.json"), "max_lag": 10, "warmup": model.max_lag,
    })
    assert run_cli("validate", "--config", cfg, "--out", str(tmp_path / "val")) == 0
    assert read_json(tmp_path / "val" / "validation.json")["rms_error"] == 0.0


def test_fit_volterra_cli(tmp_path):
    sim_cfg = write_config(tmp_path, "sim.json", simulate_config(
        {"type": "block_oriented", "structure": "wiener",
         "blocks": [{"b": [1.0, 0.5], "a": [1.0, -0.3]}],
         "nonlinearity": [0.0, 1.0, 0.2]},
        noise={"measurement_std": 1e-3},
        excitation={"fs": 128.0, "period_samples": 512, "grid_kind": "full",
                    "k_max": 100, "rms": 1.0},
        num_periods=8,
    ))
    sim_out = tmp_path / "sim"
    assert run_cli("simulate", "--config", sim_cfg, "--out", str(sim_out)) == 0
    vol_cfg = write_config(tmp_path, "vol.json", {
        "schema_version": 1,
        "record": str(sim_out / "record.csv"),
        "memory": 6,
        "degree": 2,
    })
    out = tmp_path / "vol"
    assert run_cli("fit-volterra", "--config", vol_cfg, "--out", str(out)) == 0
    payload = read_json(out / "volterra.json")
    assert payload["m"] == 6


def test_decouple_cli_worked_polymap(tmp_path):
    from nlsid.polybasis import PolyMap, enumerate_monomials
    from nlsid.serialize import write_json as wj
    basis = enumerate_monomials(2, 0, 3)
    coeffs = np.array([
        [1, 0, 8, 8, 16, 8, 54, -54, 18, -2],
        [-3, -15, -19, -24, -48, -24, -27, 27, -9, 1],
    ], dtype=float)
    wj(tmp_path / "f.json", PolyMap(basis, coeffs).to_dict())
    cfg = write_config(tmp_path, "dec.json", {
        "schema_version": 1,
        "polymap": str(tmp_path / "f.json"),
        "r": 2, "seed": 0, "num_points": 300,
    })
    out = tmp_path / "dec"
    assert run_cli("decouple", "--config", cfg, "--out", str(out)) == 0
    payload = read_json(out / "decoupled.json")
    assert payload["residual_max"] < 1e-8
    assert payload["cpd_error"] <= 1e-8
    assert payload["cpd_stop"] == "converged" and 0 < payload["cpd_sweeps"] < 300
    again = tmp_path / "again"
    assert run_cli("decouple", "--config", cfg, "--out", str(again)) == 0
    assert (again / "decoupled.json").read_bytes() == (out / "decoupled.json").read_bytes()


@pytest.mark.parametrize("field, value", [
    ("r", "two"),
    ("r", 0),
    ("num_points", 0),
    ("num_points", -5),
    ("branch_degree", "x"),
    ("seed", "x"),
    ("polymap", 5),
    ("polymap", "no/such/polymap.json"),
    ("mode", "exact"),
])
def test_decouple_bad_config_value_exit_2(tmp_path, capsys, field, value):
    from nlsid.polybasis import PolyMap
    from nlsid.serialize import write_json as wj
    wj(tmp_path / "f.json", PolyMap(enumerate_monomials(2, 0, 3), np.zeros((2, 10))).to_dict())
    cfg = {"schema_version": 1, "polymap": str(tmp_path / "f.json"), "r": 2, "seed": 0}
    cfg[field] = value
    out = tmp_path / "dec"
    assert run_cli("decouple", "--config", write_config(tmp_path, "dec.json", cfg),
                   "--out", str(out)) == 2
    assert field in capsys.readouterr().err
    assert not (out / "decoupled.json").exists()


@pytest.mark.parametrize("command", ["design", "simulate", "decouple", "pipeline"])
@pytest.mark.parametrize("seed", ["x", 1.5, True, -1])
def test_non_integer_seed_exit_2(tmp_path, capsys, command, seed):
    from nlsid.polybasis import PolyMap
    from nlsid.serialize import write_json as wj
    wj(tmp_path / "f.json", PolyMap(enumerate_monomials(2, 0, 3), np.zeros((2, 10))).to_dict())
    cfg = {"design": design_config(),
           "simulate": simulate_config({"type": "static", "coefficients": [0.0, 1.0]}),
           "decouple": {"schema_version": 1, "polymap": str(tmp_path / "f.json"), "r": 2},
           "pipeline": dict(PIPE_CFG)}[command]
    cfg["seed"] = seed
    out = tmp_path / "o"
    assert run_cli(command, "--config", write_config(tmp_path, "c.json", cfg),
                   "--out", str(out)) == 2
    assert "'seed' must be a nonnegative integer" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("value", ["false", 0, None])
def test_fit_narx_non_boolean_direct_term_exit_2(tmp_path, capsys, value):
    rng = np.random.default_rng(0)
    write_signal_record(tmp_path / "rec.csv",
                        SignalRecord(1.0, 64, 2, rng.normal(size=128), rng.normal(size=128)))
    cfg = write_config(tmp_path, "narx.json", {
        "schema_version": 1, "record": str(tmp_path / "rec.csv"), "na": 1, "nb": 1,
        "degree": 1, "direct_term": value})
    out = tmp_path / "narx"
    assert run_cli("fit-narx", "--config", cfg, "--out", str(out)) == 2
    assert "direct_term" in capsys.readouterr().err
    assert not (out / "narx.json").exists()


def _volterra_fit(**regularizer):
    return {"type": "volterra", "memory": 4,
            "regularizer": {"tuning": "marginal_likelihood_grid", **regularizer}}


PIPE_CFG = {
    "schema_version": 1,
    "seed": 11,
    "excitation": {"fs": 128.0, "period_samples": 256, "grid_kind": "odd_random_skip",
                   "k_max": 51, "rms": 0.4},
    "system": {"type": "static", "coefficients": [0.0, 1.0]},
    "noise": {"measurement_std": 1e-3},
    "num_periods": 8,
    "discard_periods": 1,
    "fit": {"type": "narx", "na": 1, "nb": 1, "degree": 1},
    "max_lag": 20,
}


def test_pipeline_linear_verdict(tmp_path):
    cfg = write_config(tmp_path, "pipe.json", PIPE_CFG)
    out = tmp_path / "run"
    assert run_cli("pipeline", "--config", cfg, "--out", str(out)) == 0
    summary = read_json(out / "pipeline_summary.json")
    assert summary["verdict"] == "linear adequate"
    assert (out / "manifest.json").exists()


def test_pipeline_nonlinear_verdict_and_resume(tmp_path):
    cfg_dict = dict(PIPE_CFG)
    cfg_dict["system"] = {"type": "duffing", "fs": 128.0, "hardening": 1.0}
    cfg_dict["excitation"] = dict(PIPE_CFG["excitation"], rms=0.3)
    cfg_dict["fit"] = {"type": "narx", "na": 2, "nb": 2, "degree": 3}
    cfg = write_config(tmp_path, "pipe.json", cfg_dict)
    out = tmp_path / "run"
    assert run_cli("pipeline", "--config", cfg, "--out", str(out)) == 0
    summary = read_json(out / "pipeline_summary.json")
    assert summary["verdict"].startswith("nonlinear recommended, headroom")
    assert summary["headroom_db"] > 6.0

    # resumption: delete one late-stage output, rerun with --resume, confirm
    # earlier artifacts are untouched (byte-identical) and the stage is rebuilt
    record_bytes = (out / "simulate" / "record.csv").read_bytes()
    (out / "validate" / "validation.json").unlink()
    assert run_cli("pipeline", "--config", cfg, "--out", str(out), "--resume") == 0
    assert (out / "simulate" / "record.csv").read_bytes() == record_bytes
    assert (out / "validate" / "validation.json").exists()


README_PIPE_CFG = {
    "schema_version": 1,
    "seed": 11,
    "excitation": {"fs": 128.0, "period_samples": 256, "grid_kind": "odd_random_skip",
                   "k_max": 51, "rms": 0.4},
    "system": {"type": "duffing", "fs": 128.0, "hardening": 1.0},
    "noise": {"measurement_std": 1e-3},
    "num_periods": 8,
    "discard_periods": 1,
    "fit": {"type": "narx", "na": 2, "nb": 2, "degree": 3},
}


def test_pipeline_resume_after_config_change_matches_fresh_run(tmp_path):
    # a changed system reruns simulate and every stage after it, although the
    # later stages' own configs (file paths) did not change
    linear = dict(README_PIPE_CFG, system=dict(README_PIPE_CFG["system"], hardening=0.0))
    hard_cfg = write_config(tmp_path, "hard.json", README_PIPE_CFG)
    linear_cfg = write_config(tmp_path, "linear.json", linear)
    resumed, fresh = tmp_path / "resumed", tmp_path / "fresh"
    assert run_cli("pipeline", "--config", hard_cfg, "--out", str(resumed)) == 0
    hard_summary = (resumed / "pipeline_summary.json").read_bytes()
    assert run_cli("pipeline", "--config", linear_cfg, "--out", str(resumed), "--resume") == 0
    assert run_cli("pipeline", "--config", linear_cfg, "--out", str(fresh)) == 0
    summary = (resumed / "pipeline_summary.json").read_bytes()
    assert summary == (fresh / "pipeline_summary.json").read_bytes()
    assert summary != hard_summary
    assert read_json(fresh / "pipeline_summary.json")["verdict"] == "linear adequate"


def test_pipeline_rerun_byte_identical_reports(tmp_path):
    cfg = write_config(tmp_path, "pipe.json", PIPE_CFG)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli("pipeline", "--config", cfg, "--out", str(out_a)) == 0
    assert run_cli("pipeline", "--config", cfg, "--out", str(out_b)) == 0
    for rel in ("pipeline_summary.json", "analyze/analysis.json", "bla/bla.json"):
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()


def test_pipeline_parses_the_record_once_per_pass(tmp_path, monkeypatch):
    reads = []

    def counted(path):
        reads.append(Path(path).name)
        return read_signal_record(path)

    monkeypatch.setattr(nlsid.cli, "read_signal_record", counted)
    cfg = write_config(tmp_path, "pipe.json", PIPE_CFG)
    out = tmp_path / "run"
    assert run_cli("pipeline", "--config", cfg, "--out", str(out)) == 0
    assert reads == ["record.csv"]
    # nothing to rerun: no stage needs the record
    reads.clear()
    assert run_cli("pipeline", "--config", cfg, "--out", str(out), "--resume") == 0
    assert reads == []
    # a changed fit reruns fit and validate on one parse
    summary = (out / "pipeline_summary.json").read_bytes()
    changed = write_config(tmp_path, "changed.json",
                           dict(PIPE_CFG, fit={"type": "narx", "na": 1, "nb": 2, "degree": 1}))
    assert run_cli("pipeline", "--config", changed, "--out", str(out), "--resume") == 0
    assert reads == ["record.csv"]
    assert (out / "pipeline_summary.json").read_bytes() != summary


@pytest.mark.parametrize("overrides, message", [
    ({"excitation": dict(PIPE_CFG["excitation"], grid_kind="full")}, "odd excitation grid"),
    ({"max_lag": "x"}, "'max_lag'"),
    ({"threshold_db": "x"}, "'threshold_db'"),
    ({"discard_periods": -1}, "'discard_periods'"),
    ({"fit": {"type": "narx", "na": "x", "nb": 1, "degree": 1}}, "'na'"),
    ({"fit": {"type": "narx", "na": 1, "nb": 1, "degree": 0}}, "'degree'"),
    ({"fit": {"type": "volterra", "memory": 0}}, "'memory'"),
    ({"fit": _volterra_fit(grid_span=0)}, "grid_span"),
    ({"fit": _volterra_fit(grid_span=-2)}, "grid_span"),
    ({"fit": _volterra_fit(scale_1=0)}, "scale_1"),
    ({"fit": _volterra_fit(corr_1=2)}, "corr_1"),
    ({"fit": _volterra_fit(decay_1=1, corr_1=1)}, "corr_1"),
    ({"fit": {"type": "pnlss", "state_dim": 40}}, "'state_dim' (40)"),
    ({"system": {k: v for k, v in TANKS_SYSTEM.items() if k != "k2"}}, "'k2'"),
    ({"noise": {"measurement_std": -1}}, "measurement_std"),
    ({"num_periods": 1}, "'num_periods' must be an integer of at least 2"),
    ({"fit": _volterra_fit(grid_points=10)}, "grid_points"),
    ({"num_periods": 2, "max_lag": 45}, "'max_lag' (45)"),
    ({"fit": {"type": "narx", "na": 2048, "nb": 1, "degree": 1}}, "'na', 'nb'"),
    ({"fit": _volterra_fit(grid_points=1)}, "grid_points"),
])
def test_pipeline_bad_config_exit_2_before_any_stage(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path, "pipe.json", dict(PIPE_CFG, **overrides))
    out = tmp_path / "run"
    assert run_cli("pipeline", "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, overrides, message", [
    ("analyze", {"discard_periods": 3}, "'discard_periods' (3)"),
    ("bla", {"discard_periods": 3}, "'discard_periods' (3)"),
    ("fit-pnlss", {"state_dim": 40}, "'state_dim' (40)"),
    ("analyze", {"smoothing_window": 1000}, "'smoothing_window' (1000)"),
])
def test_value_that_does_not_fit_the_data_exit_2(tmp_path, capsys, command, overrides, message):
    # a 4-period record and a spec of 19 excited lines
    design_out = tmp_path / "design"
    design = {"schema_version": 1, "seed": 11, "excitation": PIPE_CFG["excitation"],
              "num_periods": 4}
    assert run_cli("design", "--config", write_config(tmp_path, "design.json", design),
                   "--out", str(design_out)) == 0
    record = str(design_out / "signal.csv")
    cfg = {"schema_version": 1, "spec": str(design_out / "multisine.json"),
           **({"records": [record]} if command == "bla" else {"record": record}), **overrides}
    out = tmp_path / "o"
    assert run_cli(command, "--config", write_config(tmp_path, "c.json", cfg),
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, field", [
    ("analyze", "spec"), ("fit-pnlss", "spec"), ("validate", "model"),
])
def test_missing_input_file_exit_2(tmp_path, capsys, command, field):
    rng = np.random.default_rng(0)
    write_signal_record(tmp_path / "rec.csv",
                        SignalRecord(1.0, 64, 4, rng.normal(size=256), rng.normal(size=256)))
    missing = str(tmp_path / "missing.json")
    cfg = write_config(tmp_path, "c.json", {"schema_version": 1,
                                            "record": str(tmp_path / "rec.csv"), field: missing})
    out = tmp_path / "o"
    assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
    assert f"{field} {missing} does not load" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_validate_record_shorter_than_the_model_lags_exit_2(tmp_path, capsys):
    basis = enumerate_monomials(5, 0, 1)
    model = NarxModel(2, 2, True, PolyMap(basis, np.full((1, len(basis)), 0.1)))
    write_json(tmp_path / "narx.json", model.to_dict())
    write_signal_record(tmp_path / "rec.csv", SignalRecord(1.0, 1, 1, np.ones(1), np.ones(1)))
    cfg = write_config(tmp_path, "val.json", {"schema_version": 1,
                                              "record": str(tmp_path / "rec.csv"),
                                              "model": str(tmp_path / "narx.json")})
    out = tmp_path / "val"
    assert run_cli("validate", "--config", cfg, "--out", str(out)) == 2
    assert "record of 1 samples is too short for lag 2" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("overrides, message", [
    ({}, "'max_lag' (40)"), ({"warmup": 300}, "'warmup' (300)"),
])
def test_validate_record_too_short_for_max_lag_exit_2(tmp_path, capsys, overrides, message):
    # the residual tests need more than 10 * max_lag samples after the warmup
    model = PnlssModel(np.array([[0.5]]), np.array([1.0]), np.array([1.0]), 0.0, None, None,
                       np.zeros(1))
    write_json(tmp_path / "lin.json", model.to_dict())
    rng = np.random.default_rng(0)
    write_signal_record(tmp_path / "rec.csv",
                        SignalRecord(1.0, 256, 1, rng.normal(size=256), rng.normal(size=256)))
    cfg = write_config(tmp_path, "val.json", {"schema_version": 1,
                                              "record": str(tmp_path / "rec.csv"),
                                              "model": str(tmp_path / "lin.json"), **overrides})
    out = tmp_path / "val"
    assert run_cli("validate", "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert list(out.iterdir()) == []


LINEAR = PnlssModel(np.diag([0.5, 0.3]), np.ones(2), np.ones(2), 0.0, None, None,
                    np.zeros(2)).to_dict()
# na 2, nb 2 and the direct term: 5 regressors
NARX = NarxModel(2, 2, True, PolyMap(enumerate_monomials(5, 0, 1), np.full((1, 6), 0.1))).to_dict()


@pytest.mark.parametrize("model", [
    dict(LINEAR, E={"n_vars": 3, "d_min": 2, "d_max": 3, "exponents": [[5, 0, 0]],
                    "coeffs": [[0.1], [0.0]]}),
    dict(LINEAR, E={"n_vars": 3, "d_min": 2, "d_max": 3, "exponents": [[1, 1]],
                    "coeffs": [[0.1], [0.0]]}),
    dict(LINEAR, E={"n_vars": 3, "d_min": 2, "d_max": 2, "exponents": [[3, 0, 0]],
                    "coeffs": [[0.1], [0.0]]}),
    dict(LINEAR, E={"decoupled": {"W": [[1.0], [0.0]], "V": [[1.0], [0.0], [0.0]],
                                  "branches": [[]]}}),
    dict(LINEAR, E={"n_vars": 3, "d_min": 3, "d_max": 2, "exponents": [], "coeffs": [[], []]}),
    dict(NARX, **PolyMap(enumerate_monomials(3, 0, 1), np.full((1, 4), 0.1)).to_dict()),
    dict(NARX, na=3),
], ids=["degree-above-d_max", "length-not-n_vars", "d_max-below-degree", "empty-branch",
        "d_min-above-d_max", "narx-poly-cut", "narx-na-mismatch"])
def test_validate_model_that_cannot_run_exit_2(tmp_path, capsys, model):
    write_json(tmp_path / "model.json", model)
    rng = np.random.default_rng(0)
    write_signal_record(tmp_path / "rec.csv",
                        SignalRecord(1.0, 512, 1, rng.normal(size=512), rng.normal(size=512)))
    cfg = write_config(tmp_path, "val.json", {"schema_version": 1,
                                              "record": str(tmp_path / "rec.csv"),
                                              "model": str(tmp_path / "model.json")})
    out = tmp_path / "val"
    assert run_cli("validate", "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"model {tmp_path / 'model.json'} does not load" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_fit_narx_lag_past_the_record_exit_2(tmp_path, capsys):
    rng = np.random.default_rng(0)
    write_signal_record(tmp_path / "rec.csv",
                        SignalRecord(1.0, 64, 1, rng.normal(size=64), rng.normal(size=64)))
    cfg = write_config(tmp_path, "narx.json", {"schema_version": 1,
                                               "record": str(tmp_path / "rec.csv"),
                                               "na": 64, "nb": 1, "degree": 1})
    out = tmp_path / "narx"
    assert run_cli("fit-narx", "--config", cfg, "--out", str(out)) == 2
    assert "record of 64 samples is too short for lag 64" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_validate_divergence_names_the_step_and_no_value(tmp_path, capsys):
    # an unstable linear model: the run stops where the state, still finite,
    # passes 1e6, so a message that says "inf" would be false
    model = PnlssModel(np.array([[1.5]]), np.array([1.0]), np.array([1.0]), 0.0, None, None,
                       np.zeros(1))
    write_json(tmp_path / "lin.json", model.to_dict())
    rng = np.random.default_rng(0)
    write_signal_record(tmp_path / "rec.csv",
                        SignalRecord(1.0, 128, 1, rng.normal(size=128), rng.normal(size=128)))
    cfg = write_config(tmp_path, "val.json", {"schema_version": 1,
                                              "record": str(tmp_path / "rec.csv"),
                                              "model": str(tmp_path / "lin.json"), "max_lag": 5})
    assert run_cli("validate", "--config", cfg, "--out", str(tmp_path / "val")) == 4
    err = capsys.readouterr().err
    assert "at step " in err and "inf" not in err


def test_missing_config_file_exit_2(tmp_path):
    assert run_cli("design", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")) == 2


def test_non_finite_record_exit_2(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = tmp_path / "record.csv"
    write_signal_record(path, SignalRecord(1.0, 64, 1, rng.normal(size=64), rng.normal(size=64)))
    rows = path.read_text().splitlines()
    t, u, _ = rows[10].split(",")
    rows[10] = f"{t},{u},nan"
    path.write_text("\n".join(rows) + "\n")
    cfg = write_config(tmp_path, "narx.json", {"schema_version": 1, "record": str(path),
                                               "na": 2, "nb": 2, "degree": 2})
    assert run_cli("fit-narx", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("oversample", [0, -2])
def test_pipeline_tanks_oversample_below_one_exit_2(tmp_path, capsys, oversample):
    # unchecked, 0 divides by zero in the step size and -2 integrates nothing
    cfg_dict = dict(PIPE_CFG, system=dict(TANKS_SYSTEM, oversample=oversample))
    cfg = write_config(tmp_path, "pipe.json", cfg_dict)
    assert run_cli("pipeline", "--config", cfg, "--out", str(tmp_path / "run")) == 2
    assert "oversample" in capsys.readouterr().err


@pytest.mark.parametrize("body, message", [
    ("", "0 row(s)"),
    ("0,1.5,2.5\n1,0.5\n", "columns"),
    ("0,1.5,2.5\n1,0.5,x\n", "'x'"),
    ("0,1.5\n1,0.5\n", "of 2"),
])
def test_malformed_record_body_exit_2(tmp_path, capsys, body, message):
    path = tmp_path / "record.csv"
    write_signal_record(path, SignalRecord(1.0, 2, 1, np.ones(2), np.ones(2)))
    path.write_text("t,u,y\n" + body)
    cfg = write_config(tmp_path, "narx.json", {"schema_version": 1, "record": str(path),
                                               "na": 1, "nb": 1, "degree": 1})
    assert run_cli("fit-narx", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "does not load" in err and message in err


def _src_env():
    src = str(Path(nlsid.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


@pytest.mark.parametrize("module", ["nlsid", "nlsid.cli"])
def test_import_leaves_scipy_out(module):
    # every CLI command is its own process, so the import is paid per step
    code = (f"import sys, {module}\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_commands_run_with_scipy_blocked(tmp_path):
    # a None entry in sys.modules makes any later `import scipy` raise, also
    # one made lazily inside a function
    fits = {
        "narx": {"type": "narx", "na": 1, "nb": 1, "degree": 3},
        "volterra": {"type": "volterra", "memory": 4, "degree": 2,
                     "regularizer": {"tuning": "marginal_likelihood_grid", "grid_points": 2}},
        "pnlss": {"type": "pnlss", "state_dim": 2, "state_degree": 3, "max_iterations": 3},
    }
    runs = []
    for name, fit in fits.items():
        cfg = write_config(tmp_path, f"{name}.json", dict(README_PIPE_CFG, fit=fit))
        runs.append(["pipeline", "--config", cfg, "--out", str(tmp_path / name)])
    dec = write_config(tmp_path, "dec.json", {
        "schema_version": 1, "pnlss": str(tmp_path / "pnlss" / "fit" / "pnlss.json"),
        "record": str(tmp_path / "pnlss" / "simulate" / "record.csv"),
        "r": 1, "seed": 0, "num_points": 200})
    runs.append(["decouple", "--config", dec, "--out", str(tmp_path / "dec")])
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from nlsid.cli import main\n"
            f"print([main(argv) for argv in {runs!r}])")
    done = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[0, 0, 0, 0]", done.stderr
    assert (tmp_path / "dec" / "decoupled.json").exists()


def test_report_files_hold_their_objects_fields(tmp_path):
    # the reports are written from the objects' own fields, so a field added
    # to FitReport, ValidationReport or DecoupleResult reaches its file
    fit = {"type": "pnlss", "state_dim": 2, "state_degree": 3, "max_iterations": 3}
    cfg = write_config(tmp_path, "pipe.json", dict(README_PIPE_CFG, fit=fit))
    run = tmp_path / "run"
    assert run_cli("pipeline", "--config", cfg, "--out", str(run)) == 0
    dec = write_config(tmp_path, "dec.json", {
        "schema_version": 1, "pnlss": str(run / "fit" / "pnlss.json"),
        "record": str(run / "simulate" / "record.csv"), "r": 1, "seed": 0, "num_points": 200})
    assert run_cli("decouple", "--config", dec, "--out", str(tmp_path / "dec")) == 0

    def names(cls):
        return {f.name for f in fields(cls)}

    assert (set(read_json(run / "fit" / "pnlss_fit_report.json"))
            == names(FitReport) | {"linear_frf_fit_rms"})
    assert set(read_json(run / "validate" / "validation.json")) == names(ValidationReport)
    assert (set(read_json(tmp_path / "dec" / "decoupled.json"))
            == {"W", "V", "branches"} | names(DecoupleResult) - {"function"})
