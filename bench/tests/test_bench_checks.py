"""Each check of the benchmark passes a correct output and rejects a wrong one.

Run from the repository root:  python -m pytest bench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import signal

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import bootstrap  # noqa: E402

bootstrap.import_nlsid()

import checks as C  # noqa: E402
import w_cli_pipeline  # noqa: E402


def test_cost_trajectory_must_not_rise():
    assert C.non_increasing("costs", [5.0, 3.0, 3.0, 1.0]) is None
    assert "rises at step 2" in C.non_increasing("costs", [5.0, 3.0, 3.5, 1.0])
    assert C.non_increasing("costs", [5.0, np.nan]) is not None


def test_perturbed_frf_is_rejected():
    lines = np.arange(1, 51)
    frf = C.oscillator_frf(c=12.6, k1=1579.0, b=1579.0, fs=200.0, lines=lines, n=256)
    assert C.relative_close("frf", frf.copy(), frf, 0.01) is None
    bad = frf.copy()
    bad[np.argmax(np.abs(frf))] *= 1.02
    assert C.relative_close("frf", bad, frf, 0.01) is not None
    assert C.relative_close("frf", frf[:-1], frf, 0.01) is not None


def test_zoh_models_have_the_right_static_gain():
    dc = C.oscillator_frf(c=3.0, k1=50.0, b=20.0, fs=100.0, lines=[0], n=64)
    assert dc[0] == pytest.approx(20.0 / 50.0)
    k1, k2, k3, k4, u0 = 0.5, 0.4, 0.3, 1.0, 0.8
    dc = C.tanks_frf(k1, k2, k3, k4, u0, fs=2.0, lines=[0], n=256)
    # x2 = (k2 / k3)^2 (k4 u / k1)^2 at rest
    assert dc[0].real == pytest.approx(2.0 * (k2 / k3) ** 2 * (k4 / k1) ** 2 * u0)


def test_reference_loop_matches_scipy_and_catches_a_wrong_output():
    a = np.array([[1.2, -0.5], [1.0, 0.0]])
    b, c, d = np.array([0.4, 0.0]), np.array([0.5, 0.1]), 0.2
    u = np.random.default_rng(0).normal(size=200)
    y = C.state_space_output(a, b, c, d, np.zeros(2), None, u)
    _, y_scipy, _ = signal.dlsim((a, b[:, None], c[None, :], [[d]], 1.0), u)
    assert C.relative_close("loop", y, y_scipy[:, 0], 1e-12) is None
    assert C.relative_close("loop", y + 1e-6 * np.arange(200), y, 1e-8) is not None


def test_monomials_and_decoupled_form_agree():
    # W g(V^T p) with one branch g(x) = x^2 along p1 + p2, so f = p1^2 + 2 p1 p2 + p2^2
    pts = np.random.default_rng(1).normal(size=(50, 2))
    got = C.decoupled([[1.0]], [[1.0], [1.0]], [np.array([0.0, 0.0, 1.0])], pts)
    want = C.monomials([(2, 0), (1, 1), (0, 2)], pts) @ np.array([[1.0, 2.0, 1.0]]).T
    assert C.relative_close("decoupled", got, want, 1e-12) is None
    assert C.relative_close("decoupled", got, 1.001 * want, 1e-6) is not None


def test_designed_spectrum_must_sit_on_the_excited_lines():
    n = 512
    amps = {3: 0.5, 7: 0.25, 40: 0.1}
    rng = np.random.default_rng(2)
    l = np.arange(n)
    u = sum(a * np.cos(2 * np.pi * k * l / n + rng.uniform(0, 2 * np.pi)) for k, a in amps.items())
    assert C.spectrum_on_lines("u", u, amps) is None
    leaked = u + 1e-6 * np.cos(2 * np.pi * 11 * l / n)
    assert C.spectrum_on_lines("u", leaked, amps) is not None
    assert C.spectrum_on_lines("u", u, {**amps, 7: 0.26}) is not None


def test_swapped_distortion_verdict_is_rejected():
    assert C.distortion_kind("u^2", 35.0, -1.0, "even") is None
    assert C.distortion_kind("u^3", -1.0, 36.0, "odd") is None
    assert C.distortion_kind("u^2", -1.0, 35.0, "even") is not None
    assert C.distortion_kind("u^3", 36.0, -1.0, "odd") is not None


def test_resonance_must_rise_with_level():
    assert C.strictly_increasing("f", [21.9, 26.7, 30.4]) is None
    assert C.strictly_increasing("f", [21.9, 30.4, 26.7]) is not None
    assert C.strictly_increasing("f", [None, 26.7, 30.4]) is not None


def test_bounds():
    assert C.at_most("ratio", 0.012, 0.1) is None
    assert C.at_most("ratio", 0.8, 0.1) is not None
    assert C.within("rms", 1.1, 0.5, 2.0) is None
    assert C.within("rms", 114.0, 0.5, 2.0) is not None
    assert C.within("rms", float("nan"), 0.5, 2.0) is not None


def test_rerun_tree_must_be_byte_identical(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name / "fit").mkdir(parents=True)
        (tmp_path / name / "fit" / "narx.json").write_text('{"x": 1.0}\n')
        (tmp_path / name / "manifest.json").write_text(f'{{"path": "{name}"}}\n')
    a, b = tmp_path / "a", tmp_path / "b"
    assert C.identical_trees("rerun", a, b, skip={"manifest.json"}) is None
    assert C.identical_trees("rerun", a, b) is not None
    (b / "fit" / "narx.json").write_text('{"x": 1.0000000000000002}\n')
    assert C.identical_trees("rerun", a, b, skip={"manifest.json"}) is not None


def _fake_pipeline_outputs(tmp_path, swap=None, poly_rms=1e-3):
    """Pipeline output directories as the first round of cli_pipeline leaves them."""
    wl = w_cli_pipeline.CliPipeline()
    passes = [(s, f) for s in w_cli_pipeline.SYSTEMS for f in ("narx", "volterra")]
    passes.append(w_cli_pipeline.RERUN)
    configs, results = [], []
    for i, (system, fit) in enumerate(passes):
        linear = w_cli_pipeline.SYSTEMS[system][4]
        if swap == system:
            linear = not linear
        verdict = "linear adequate" if linear else "nonlinear recommended, headroom 40.0 dB"
        rms = poly_rms if (system, fit) == ("static_poly", "narx") else 0.1
        out = tmp_path / f"pass{i}"
        out.mkdir()
        (out / "pipeline_summary.json").write_text(json.dumps(
            {"verdict": verdict, "fit_percent": 90.0, "rms_error": rms}))
        configs.append((system, fit, None))
        results.append(out)
    return wl, {"configs": configs}, results


def test_pipeline_checks_pass_on_expected_outputs(tmp_path):
    wl, state, results = _fake_pipeline_outputs(tmp_path)
    problems, _ = wl.check(state, results, seed=0)
    assert problems == []


@pytest.mark.parametrize("system", ["static_linear", "wiener"])
def test_pipeline_checks_reject_a_swapped_verdict(tmp_path, system):
    wl, state, results = _fake_pipeline_outputs(tmp_path, swap=system)
    problems, _ = wl.check(state, results, seed=0)
    assert any(system in p and "verdict" in p for p in problems)


def test_pipeline_checks_reject_narx_error_far_from_the_noise(tmp_path):
    wl, state, results = _fake_pipeline_outputs(tmp_path, poly_rms=3e-3)
    problems, _ = wl.check(state, results, seed=0)
    assert any("static_poly/narx rms" in p for p in problems)


def test_pipeline_checks_reject_a_failed_pass(tmp_path):
    wl, state, results = _fake_pipeline_outputs(tmp_path)
    results[3] = None
    problems, _ = wl.check(state, results, seed=0)
    assert any("did not exit 0" in p for p in problems)


def test_tracer_covers_every_module_name_and_restores_them():
    import tracing
    from nlsid import cli, narx, pnlss, polybasis

    originals = (polybasis.eval_monomials, pnlss.eval_monomials, narx.eval_monomials,
                 cli.COMMANDS["pipeline"])
    tracer = tracing.Tracer()
    tracer.install(sys.modules["nlsid"])
    try:
        x = np.zeros(3)
        basis = polybasis.enumerate_monomials(3, 0, 2)
        for module in (polybasis, pnlss, narx):
            module.eval_monomials(basis, x)
        assert cli.COMMANDS["pipeline"] is cli.cmd_pipeline is not originals[3]
    finally:
        tracer.uninstall()
    totals = tracer.snapshot()
    assert totals["stats"]["polybasis.eval_monomials"][0] == 3
    assert totals["stats"]["polybasis.enumerate_monomials"][0] == 1
    assert (polybasis.eval_monomials, pnlss.eval_monomials, narx.eval_monomials,
            cli.COMMANDS["pipeline"]) == originals
    assert tracing.uncalled(["polybasis.eval_calls"], totals) == []
    assert tracing.uncalled(["pnlss.simulate_calls", "decouple.cpd_sweeps"], totals) == [
        "pnlss.simulate_calls", "decouple.cpd_sweeps"]
