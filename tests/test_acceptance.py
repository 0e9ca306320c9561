"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import signal as sp_signal

from nlsid.bla import bla_shift_study, estimate_bla_spectral
from nlsid.decouple import decouple_approx, decouple_exact, eval_decoupled
from nlsid.nonparam import classify_lines, detect_process_noise, sample_statistics
from nlsid.pnlss import fit_pnlss, init_linear_from_bla, simulate_pnlss
from nlsid.polybasis import PolyMap, enumerate_monomials, eval_polymap
from nlsid.signals import (SignalRecord, design_multisine,
                           flat_amplitude_spec, full_grid,
                           odd_random_skip_grid, random_phases, tile_periods)
from nlsid.simulators import (NoiseSpec, default_duffing, simulate_duffing,
                              simulate_static, steady_state_record)
from nlsid.validate import domain_coverage, fit_metric, residual_tests


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float,
            budget: float | None = None):
    verdict = "PASS" if ok else "FAIL"
    budget_txt = f" (budget {budget:.0f}s)" if budget else ""
    print(f"[criterion {num:2d}] {verdict}: {name} -- {detail} "
          f"[{elapsed:.1f}s{budget_txt}]")
    assert ok, f"criterion {num} ({name}): {detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s budget"


# --------------------------------------------------------------------------
# criterion 1: analytic BLA of the cubic, with and without process noise


def _cubic_bla(n_real, process_std, seed0):
    n = 512
    spec = flat_amplitude_spec(n, 1.0, full_grid(n, 200), rms=1.0)
    recs = []
    for m in range(n_real):
        u = tile_periods(design_multisine(random_phases(spec, seed0 + m)), 2)
        noise = NoiseSpec(process_std=process_std,
                          process_entry="before_nonlinearity" if process_std else "none",
                          seed=seed0 + 10_000 + m)
        y = simulate_static([0.0, 0.0, 0.0, 1.0], u, noise).output
        recs.append(SignalRecord(1.0, n, 2, u, y))
    model = estimate_bla_spectral(recs, spec)
    return float(np.mean(model.frf.real))


def test_criterion_01_cubic_bla():
    t0 = time.time()
    g_clean = _cubic_bla(100, 0.0, seed0=0)
    g_noise = _cubic_bla(100, 0.5, seed0=500)
    ok = abs(g_clean - 3.0) / 3.0 < 0.05 and abs(g_noise - 3.75) / 3.75 < 0.05
    _report(1, "cubic BLA 3 sigma_u^2 / process-noise shift to 3.75", ok,
            f"mean FRF {g_clean:.4f} (target 3) and {g_noise:.4f} (target 3.75)",
            time.time() - t0, budget=30.0)


# --------------------------------------------------------------------------
# criterion 2: even/odd distortion classification at 40 dB SNR


def _distortion_medians(poly, seed):
    n, p = 1024, 8
    excited, _ = odd_random_skip_grid(n, 201, seed=seed, group_size=4)
    spec = random_phases(
        flat_amplitude_spec(n, float(n), excited, rms=1.0, grid_kind="odd_random_skip"),
        seed + 1)
    u = tile_periods(design_multisine(spec), p)
    y_clean = simulate_static(poly, u).output
    snr_std = np.sqrt(np.mean(y_clean**2)) * 10 ** (-40.0 / 20.0)
    rng = np.random.default_rng(seed + 2)
    rec = SignalRecord(float(n), n, p, u, y_clean + rng.normal(0, snr_std, n * p))
    report = classify_lines(spec, sample_statistics(rec))
    return (float(np.median(report.excess_db("even"))),
            float(np.median(report.excess_db("odd_detection"))))


def test_criterion_02_even_odd_classification():
    t0 = time.time()
    even_sq, odd_sq = _distortion_medians([0.0, 1.0, 0.1], seed=0)
    even_cu, odd_cu = _distortion_medians([0.0, 1.0, 0.0, 0.1], seed=10)
    ok = (even_sq >= 20.0 and odd_sq <= 6.0 and odd_cu >= 20.0 and even_cu <= 6.0)
    _report(2, "even/odd line classification", ok,
            f"u^2 case even {even_sq:.1f} dB / odd {odd_sq:.1f} dB; "
            f"u^3 case odd {odd_cu:.1f} dB / even {even_cu:.1f} dB",
            time.time() - t0, budget=10.0)


# --------------------------------------------------------------------------
# criterion 3: exact decoupling of the two-branch worked example


def _worked_example() -> PolyMap:
    basis = enumerate_monomials(2, 0, 3)
    coeffs = np.array([
        [1, 0, 8, 8, 16, 8, 54, -54, 18, -2],
        [-3, -15, -19, -24, -48, -24, -27, 27, -9, 1],
    ], dtype=float)
    return PolyMap(basis, coeffs)


def test_criterion_03_exact_decoupling_reproduction():
    t0 = time.time()
    f = _worked_example()
    res = decouple_exact(f, r=2, num_points=300, seed=0)
    pts = np.random.default_rng(42).uniform(-1, 1, (1000, 2))
    resid = float(np.max(np.abs(eval_polymap(f, pts) - eval_decoupled(res.function, pts))))
    degrees = sorted(res.function.branch_degrees())
    ok = resid < 1e-8 and degrees == [2, 3]
    _report(3, "worked decoupling example, r=2", ok,
            f"max residual {resid:.2e} over 1000 points, branch degrees {degrees}",
            time.time() - t0, budget=5.0)


# --------------------------------------------------------------------------
# criterion 4: structural-error variance ratio sqrt(2n+1) for the cubic


STRUCTURAL_ERROR_RATIO = 1.5  # a std ratio above this marks structural model error


def _gain_std_ratio(factory, m):
    """Empirical std of the least-squares gain over ``m`` realizations
    ``factory(seed)``, divided by the mean of its noise-only theoretical std
    ``sqrt(sigma2 / u'u)``."""
    gains, theory = [], []
    for seed in range(m):
        rec = factory(seed)
        u, y = rec.input, rec.output
        gain = float(u @ y / (u @ u))
        resid = y - gain * u
        sigma2 = float(resid @ resid) / (len(u) - 1)
        gains.append(gain)
        theory.append(np.sqrt(sigma2 / float(u @ u)))
    return float(np.std(gains, ddof=1) / np.mean(theory))


def test_criterion_04_variance_ratio():
    t0 = time.time()

    def factory(seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=4000)
        return SignalRecord(1.0, 4000, 1, u, u**3)

    ratio = _gain_std_ratio(factory, m=200)
    target = np.sqrt(7.0)
    ok = target * 0.7 <= ratio <= target * 1.3
    _report(4, "2n+1 variance underestimation for y=u^3", ok,
            f"std ratio {ratio:.3f}, target sqrt(7) = {target:.3f} +-30%",
            time.time() - t0, budget=60.0)


def test_variability_linear_system_ratio_near_one():
    # the control case: with no structural error the noise-only std is right
    def factory(seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=2000)
        y = 2.0 * u + rng.normal(0, 0.5, 2000)
        return SignalRecord(1.0, 2000, 1, u, y)

    ratio = _gain_std_ratio(factory, m=100)
    assert 0.6 <= ratio <= STRUCTURAL_ERROR_RATIO


# --------------------------------------------------------------------------
# criteria 5 and 6 share the simulated hardening-oscillator study


FS, N_PER = 512.0, 1024


@pytest.fixture(scope="module")
def duffing_study():
    params = default_duffing(FS, hardening=0.1)
    spec = flat_amplitude_spec(N_PER, FS, full_grid(N_PER, 150), rms=0.1)
    noise_std = 3.2e-4  # ~60 dB below the ~0.32 output RMS

    def steady(seed, periods=2):
        up = design_multisine(random_phases(spec, seed))
        return steady_state_record(
            lambda u, fs: simulate_duffing(params, u, fs,
                                           NoiseSpec(measurement_std=noise_std, seed=seed)),
            up, FS, periods, 2)

    recs = [steady(m) for m in range(4)]
    bla = estimate_bla_spectral(recs, spec)
    lin, _ = init_linear_from_bla(bla, 2)
    train = recs[0]
    model, report = fit_pnlss(lin, train, spec.excited_lines, state_degree=3)
    val = steady(99)
    return dict(spec=spec, lin=lin, model=model, report=report,
                train=train, val=val)


def _second_period_rms(rec, y_sim):
    second = slice(N_PER, 2 * N_PER)
    err = np.sqrt(np.mean((rec.output[second] - y_sim[second]) ** 2))
    return err, np.sqrt(np.mean(rec.output[second] ** 2))


def test_criterion_05_pnlss_vs_linear(duffing_study):
    t0 = time.time()
    val = duffing_study["val"]
    err_lin, rms = _second_period_rms(val, simulate_pnlss(duffing_study["lin"], val.input).y)
    err_nl, _ = _second_period_rms(val, simulate_pnlss(duffing_study["model"], val.input).y)
    ratio = err_nl / err_lin
    ok = ratio <= 0.1
    _report(5, "PNLSS free run beats the BLA-linear model by 10x", ok,
            f"linear {100 * err_lin / rms:.2f}%, PNLSS {100 * err_nl / rms:.3f}%, "
            f"ratio {ratio:.3f} (bound 0.1)",
            time.time() - t0, budget=300.0)


def test_criterion_06_single_branch_reduction(duffing_study):
    """Replace the fitted state polynomial by its one-branch decoupled form
    (branch degree 5) on the model's own training trajectory, re-optimize on
    one training period, and compare validation RMS against the full model.

    One decoupling start is enough: the state polynomial has no constant
    term, so the branch constant is zero and stays zero in the refit, which
    cannot trade it against an output offset that the lines without DC do
    not see.
    """
    t0 = time.time()
    model = duffing_study["model"]
    train = duffing_study["train"]
    val = duffing_study["val"]

    sim_train = simulate_pnlss(model, train.input)
    z_traj = np.concatenate([sim_train.x_traj, train.input[:, None]], axis=1)
    train1 = SignalRecord(FS, N_PER, 1, train.input[:N_PER], train.output[:N_PER])
    dec = decouple_approx(model.e_map, r=1, branch_degree=5, num_points=600, seed=0,
                          points=z_traj, restarts=0)
    reduced, _ = fit_pnlss(replace(model, e_map=dec.function), train1,
                           np.arange(1, N_PER // 2), max_iterations=300)

    err_full, rms = _second_period_rms(val, simulate_pnlss(model, val.input).y)
    err_dec, _ = _second_period_rms(val, simulate_pnlss(reduced, val.input).y)
    ratio = err_dec / err_full
    ok = ratio <= 2.0
    _report(6, "single-branch decoupled reduction within 2x", ok,
            f"full {100 * err_full / rms:.3f}%, single-branch {100 * err_dec / rms:.3f}%, "
            f"ratio {ratio:.2f} (bound 2.0)",
            time.time() - t0)


# --------------------------------------------------------------------------
# criterion 7: Volterra kernel recovery for the squaring Wiener system


def test_criterion_07_volterra_wiener_kernel():
    from nlsid.volterra import RegularizerSpec, fit_volterra

    t0 = time.time()
    rng = np.random.default_rng(7)
    g = np.array([1.0, 0.6, 0.3, 0.15, 0.05, 0.0, 0.0, 0.0])
    m, n = 8, 8192
    u = rng.normal(size=n)
    y_clean = sp_signal.lfilter(g, [1.0], u) ** 2
    noise = rng.normal(0, np.std(y_clean) * 10 ** (-40.0 / 20.0), n)
    rec = SignalRecord(1.0, n, 1, u, y_clean + noise)
    reg = RegularizerSpec(scale_1=100.0, decay_1=0.99, corr_1=0.0,
                          scale_2=100.0, decay_2=0.99, corr_2=0.0)
    model = fit_volterra(rec, m=m, degree=2, reg=reg)
    rel = float(np.linalg.norm(model.h2 - np.outer(g, g)) / np.linalg.norm(np.outer(g, g)))
    ok = rel <= 0.10
    _report(7, "Wiener squarer h2 = g g^T recovery", ok,
            f"relative Frobenius error {rel:.3f} at 40 dB SNR", time.time() - t0)


# --------------------------------------------------------------------------
# criterion 8: invariant bundle


def test_criterion_08_invariant_suites():
    t0 = time.time()
    details = []

    # DFT Parseval at 1e-10
    rng = np.random.default_rng(8)
    x = rng.normal(size=1024)
    bins = np.fft.fft(x)
    parseval = abs(np.sum(x**2) - np.sum(np.abs(bins) ** 2) / 1024) / np.sum(x**2)
    details.append(f"parseval {parseval:.1e}")
    assert parseval < 1e-10

    # PNLSS analytic gradient vs central differences at 1e-4 relative
    import nlsid.pnlss as P

    a = np.array([[1.2, -0.5], [1.0, 0.0]])
    basis = enumerate_monomials(3, 2, 2)
    template = P.PnlssModel(a=a, b=[0.4, 0.0], c=[0.5, 0.1], d=0.0,
                            e_map=PolyMap(basis, np.zeros((2, len(basis)))),
                            f_map=None, x0=[0.0, 0.0])
    u = rng.normal(0, 0.5, 128)
    truth = replace(template, e_map=PolyMap(basis, 0.05 * rng.normal(size=(2, len(basis)))))
    y = simulate_pnlss(truth, u).y
    rec = SignalRecord(1.0, 128, 1, u, y)
    bins_idx, sqrt_w, y_f = P._freq_residual_factory(rec, np.arange(1, 40), None)

    def cost(th):
        sim = simulate_pnlss(P._unpack(th, template), u)
        r_c = (y_f - np.fft.rfft(sim.y)[bins_idx]) / sqrt_w
        return float(np.sum(np.abs(r_c) ** 2))

    worst = 0.0
    theta0 = P._pack(template)
    for _ in range(5):
        theta = theta0 + 0.01 * rng.normal(size=len(theta0))
        m = P._unpack(theta, template)
        sim = simulate_pnlss(m, u)
        assert not sim.diverged
        jac_t = P._output_jacobian(m, sim.x_traj, u)
        j_c = -np.fft.rfft(jac_t, axis=0)[bins_idx] / sqrt_w[:, None]
        j = np.concatenate([j_c.real, j_c.imag], axis=0)
        r_c = (y_f - np.fft.rfft(sim.y)[bins_idx]) / sqrt_w
        r = np.concatenate([r_c.real, r_c.imag])
        g_an = 2.0 * j.T @ r
        g_fd = np.zeros_like(theta)
        for i in range(len(theta)):
            tp = theta.copy(); tp[i] += 1e-6
            tm = theta.copy(); tm[i] -= 1e-6
            g_fd[i] = (cost(tp) - cost(tm)) / 2e-6
        scale = np.maximum(np.abs(g_fd), 1e-6 * np.max(np.abs(g_fd)))
        worst = max(worst, float(np.max(np.abs(g_an - g_fd) / scale)))
    details.append(f"gradient {worst:.1e}")
    assert worst < 1e-4

    # LM accepted-cost monotonicity
    lin = replace(truth, e_map=None)
    _, report = fit_pnlss(lin, rec, np.arange(1, 40), state_degree=2, max_iterations=25)
    mono = bool(np.all(np.diff(report.cost_trajectory) <= 0.0))
    details.append(f"LM monotone {mono}")
    assert mono

    # fit metric edge cases
    y_ref = np.array([1.0, 2.0, 3.0, 4.0])
    assert fit_metric(y_ref, y_ref) == pytest.approx(100.0)
    assert fit_metric(y_ref, np.full(4, y_ref.mean())) == pytest.approx(0.0)
    details.append("fit metric 100/0 ok")

    # Mahalanobis affine invariance at 1e-8
    train = rng.normal(size=(300, 3))
    test = 1.5 * rng.normal(size=(100, 3))
    t_mat = np.array([[2.0, 0.3, 0.0], [0.0, 1.0, -0.4], [0.1, 0.0, 0.5]])
    cov_a = domain_coverage(train, test)
    cov_b = domain_coverage(train @ t_mat.T + 1.0, test @ t_mat.T + 1.0)
    aff = float(np.max(np.abs(cov_a.test_distances - cov_b.test_distances)))
    details.append(f"affine {aff:.1e}")
    assert aff < 1e-8

    # residual-test false positives over 100 seeds, at most 10 per test
    fa_w = fa_c = 0
    for seed in range(100):
        e = np.random.default_rng(seed).normal(size=4096)
        u2 = np.random.default_rng(77_000 + seed).normal(size=4096)
        rep = residual_tests(e, u2, max_lag=40)
        fa_w += not rep.whiteness_pass
        fa_c += not rep.crosscorr_pass
    details.append(f"false alarms {fa_w}/{fa_c}")
    assert fa_w <= 10 and fa_c <= 10

    _report(8, "invariant bundle", True, "; ".join(details), time.time() - t0)


# --------------------------------------------------------------------------
# criterion 9: hardening resonance shift


def test_criterion_09_resonance_shift():
    t0 = time.time()
    fs = 200.0
    params = default_duffing(fs, hardening=1.0)
    spec = flat_amplitude_spec(256, fs, full_grid(256, 50), rms=1.0)

    def system(u, fs_in):
        n = len(u) // 3
        rec = simulate_duffing(params, np.concatenate([u[:n], u]), fs_in,
                               NoiseSpec(measurement_std=1e-5, seed=0))
        return SignalRecord(fs_in, n, 3, rec.input[n:], rec.output[n:])

    rows = bla_shift_study(system, spec, [0.1, 0.25, 0.5],
                           num_realizations=2, num_periods=3)
    res = [r.resonance_hz for r in rows]
    ok = res[0] is not None and res[0] < res[1] < res[2]
    _report(9, "hardening resonance shift is strictly increasing", ok,
            f"resonances {[f'{r:.2f}' for r in res]} Hz over rising RMS",
            time.time() - t0)


# --------------------------------------------------------------------------
# criterion 10: process-noise detection calibration


def test_criterion_10_process_noise_detection():
    t0 = time.time()
    n, p = 1024, 16
    hits_stat = hits_nonstat = 0
    for seed in range(100):
        spec = random_phases(flat_amplitude_spec(n, float(n), (1, 2, 3), rms=1.0), seed)
        u = tile_periods(design_multisine(spec), p)
        periodic = np.sin(2 * np.pi * np.arange(n * p) * 5 / n)
        rng = np.random.default_rng(seed + 1000)
        rec_s = SignalRecord(float(n), n, p, u, periodic + 0.05 * rng.normal(size=n * p))
        hits_stat += detect_process_noise(rec_s).verdict == "stationary"
        rec_n = SignalRecord(float(n), n, p, u,
                             periodic + 0.05 * rng.normal(size=n * p) * u)
        hits_nonstat += detect_process_noise(rec_n).verdict == "nonstationary"
    ok = hits_stat >= 95 and hits_nonstat >= 95
    _report(10, "process-noise detection calibration", ok,
            f"stationary verdicts {hits_stat}/100, nonstationary verdicts {hits_nonstat}/100",
            time.time() - t0)
