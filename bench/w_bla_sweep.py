"""``bla_sweep``: excitation design, truth simulation and the model-free analysis.

One operation is one sweep on its own seeded realizations:

* a full-grid multisine with N = 16384 and 2000 lines at unit RMS;
* the hardening Duffing oscillator of criterion 9 (fs = 200 Hz, k3 = k1,
  N = 256, lines 1..50) through ``bla_shift_study`` at RMS 0.05, 0.2 and 0.5,
  two realizations of three periods per level;
* the same oscillator at RMS 0.001 with noise std 1e-6, two realizations of
  four periods after one transient period, for its BLA;
* the cascaded tanks (k = 0.5, 0.4, 0.3, 1.0, levels capped at 10,
  oversample 8, fs = 2 Hz, N = 256, odd lines up to 41) driven by
  0.8 plus a multisine at RMS 0.1, 0.2 and 0.4, two realizations of four
  periods after one transient period per level, and their BLA per level;
* 100 realizations of the static cubic (N = 512, lines 1..200, unit RMS,
  two periods) for its BLA, as in criterion 1;
* static ``u + 0.1 u^2`` and ``u + 0.1 u^3`` on an odd grid with random
  detection lines (N = 1024, odd lines up to 201, eight periods, noise 40 dB
  below the output), analysed by ``sample_statistics`` and
  ``classify_lines``; and ``u^3`` with process noise of std 0.05 before the
  cube, driven by lines 1..3 of N = 1024 over eight periods, through
  ``detect_process_noise``.

Every part of a sweep takes its phases and noise from the sweep's seed.
"""

from __future__ import annotations

import numpy as np

import checks as C
from nlsid import bla as B
from nlsid import nonparam as NP
from nlsid import signals as S
from nlsid import simulators as SIM

SWEEPS = 2                  # sweeps per round

BIG_N, BIG_LINES = 16384, 2000

DUFFING_FS, DUFFING_N, DUFFING_LINES = 200.0, 256, 50
SHIFT_LEVELS = (0.05, 0.2, 0.5)    # 0.1/0.25/0.5 reorders on some seeds
DUFFING_NOISE = 1e-5
LOW_RMS, LOW_NOISE = 0.001, 1e-6

TANKS = dict(k1=0.5, k2=0.4, k3=0.3, k4=1.0, x1_max=10.0, x2_max=10.0, oversample=8)
TANKS_FS, TANKS_N, TANKS_KMAX, TANKS_OFFSET = 2.0, 256, 41, 0.8
TANKS_LEVELS = (0.1, 0.2, 0.4)
TANKS_NOISE = 1e-4

CUBIC_N, CUBIC_LINES, CUBIC_REALIZATIONS = 512, 200, 100

DIST_N, DIST_KMAX, DIST_PERIODS, DIST_SNR_DB = 1024, 201, 8, 40.0
PROCESS_LINES, PROCESS_STD = (1, 2, 3), 0.05

REALIZATIONS = 2
PERIODS = 4


class BlaSweep:
    name = "bla_sweep"
    metrics = ("signals.design_s", "simulators.simulate_s", "simulators.us_per_sample",
               "nonparam.stats_s", "bla.estimate_s")

    def setup(self, seed: int) -> dict:
        duffing = SIM.default_duffing(DUFFING_FS, hardening=1.0)
        tanks = SIM.TanksParams(**TANKS)
        return {
            "seeds": [int(s) for s in np.random.SeedSequence(seed).generate_state(SWEEPS)],
            "big": S.flat_amplitude_spec(BIG_N, float(BIG_N), S.full_grid(BIG_N, BIG_LINES)),
            "duffing": duffing,
            "duffing_spec": S.flat_amplitude_spec(DUFFING_N, DUFFING_FS,
                                                  S.full_grid(DUFFING_N, DUFFING_LINES)),
            "tanks": tanks,
            "cubic_spec": S.flat_amplitude_spec(CUBIC_N, 1.0, S.full_grid(CUBIC_N, CUBIC_LINES)),
        }

    def ops(self, state: dict):
        return [(f"sweep {k}", lambda k=k: self._sweep(state, state["seeds"][k]))
                for k in range(SWEEPS)]

    def _sweep(self, state: dict, seed: int) -> dict:
        big = S.random_phases(state["big"], seed)
        out = {"big_spec": big, "big_u": S.design_multisine(big)}

        duffing = state["duffing"]
        noise = SIM.NoiseSpec(measurement_std=DUFFING_NOISE, seed=seed)

        def duffing_system(u, fs):
            n = len(u) // 3
            rec = SIM.simulate_duffing(duffing, np.concatenate([u[:n], u]), fs, noise)
            return S.SignalRecord(fs, n, 3, rec.input[n:], rec.output[n:])

        rows = B.bla_shift_study(duffing_system, state["duffing_spec"], SHIFT_LEVELS,
                                 num_realizations=REALIZATIONS, num_periods=3, seed=seed)
        out["resonances"] = [row.resonance_hz for row in rows]

        low = S.flat_amplitude_spec(DUFFING_N, DUFFING_FS, S.full_grid(DUFFING_N, DUFFING_LINES),
                                    rms=LOW_RMS)
        recs = [SIM.steady_state_record(
                    lambda u, fs, r=r: SIM.simulate_duffing(
                        duffing, u, fs, SIM.NoiseSpec(measurement_std=LOW_NOISE, seed=seed + r)),
                    S.design_multisine(S.random_phases(low, seed + r)), DUFFING_FS, PERIODS, 1)
                for r in range(REALIZATIONS)]
        out["low_bla"] = B.estimate_bla_spectral(recs, low)

        tanks = state["tanks"]
        lines, _ = S.odd_random_skip_grid(TANKS_N, TANKS_KMAX, seed)
        out["tanks_bla"] = []
        for i, level in enumerate(TANKS_LEVELS):
            spec = S.flat_amplitude_spec(TANKS_N, TANKS_FS, lines, rms=level,
                                         grid_kind="odd_random_skip")
            recs = []
            for r in range(REALIZATIONS):
                real = S.random_phases(spec, seed + 10 * i + r)
                noise = SIM.NoiseSpec(measurement_std=TANKS_NOISE, seed=seed + 10 * i + r)
                recs.append(SIM.steady_state_record(
                    lambda u, fs, noise=noise: SIM.simulate_tanks(tanks, u, fs, noise),
                    TANKS_OFFSET + S.design_multisine(real), TANKS_FS, PERIODS, 1))
            out["tanks_bla"].append(B.estimate_bla_spectral(recs, spec))

        cubic = state["cubic_spec"]
        recs = []
        for r in range(CUBIC_REALIZATIONS):
            u = S.tile_periods(S.design_multisine(S.random_phases(cubic, seed + r)), 2)
            recs.append(S.SignalRecord(1.0, CUBIC_N, 2, u,
                                       SIM.simulate_static([0.0, 0.0, 0.0, 1.0], u).output))
        out["cubic_bla"] = B.estimate_bla_spectral(recs, cubic)

        excited, _ = S.odd_random_skip_grid(DIST_N, DIST_KMAX, seed)
        dist = S.random_phases(S.flat_amplitude_spec(DIST_N, float(DIST_N), excited,
                                                     grid_kind="odd_random_skip"), seed + 1)
        u = S.tile_periods(S.design_multisine(dist), DIST_PERIODS)
        rng = np.random.default_rng(seed)
        for kind, poly in (("even", [0.0, 1.0, 0.1]), ("odd", [0.0, 1.0, 0.0, 0.1])):
            clean = SIM.simulate_static(poly, u).output
            std = np.sqrt(np.mean(clean ** 2)) * 10 ** (-DIST_SNR_DB / 20.0)
            rec = S.SignalRecord(float(DIST_N), DIST_N, DIST_PERIODS, u,
                                 clean + rng.normal(0.0, std, len(u)))
            report = NP.classify_lines(dist, NP.sample_statistics(rec))
            out[kind] = (float(np.median(report.excess_db("even"))),
                         float(np.median(report.excess_db("odd_detection"))))
        slow = S.random_phases(S.flat_amplitude_spec(DIST_N, float(DIST_N), PROCESS_LINES), seed)
        u = S.tile_periods(S.design_multisine(slow), DIST_PERIODS)
        noisy = SIM.simulate_static(
            [0.0, 0.0, 0.0, 1.0], u,
            SIM.NoiseSpec(process_std=PROCESS_STD, process_entry="before_nonlinearity", seed=seed))
        out["process_noise"] = NP.detect_process_noise(
            S.SignalRecord(float(DIST_N), DIST_N, DIST_PERIODS, u, noisy.output)).verdict
        return out

    def check(self, state: dict, results: list, seed: int):
        problems, values = [], {}
        duffing = state["duffing"]
        for k, out in enumerate(results):
            if out is None:
                continue
            low = out["low_bla"]
            zoh = C.oscillator_frf(duffing.c, duffing.k1, duffing.b, DUFFING_FS, low.lines,
                                   DUFFING_N)
            tanks_lin = [C.tanks_frf(TANKS["k1"], TANKS["k2"], TANKS["k3"], TANKS["k4"],
                                     TANKS_OFFSET, TANKS_FS, m.lines, TANKS_N)
                         for m in out["tanks_bla"]]
            tank_dev = [float(np.max(np.abs(m.frf - lin)) / np.max(np.abs(lin)))
                        for m, lin in zip(out["tanks_bla"], tanks_lin)]
            cubic_gain = float(np.mean(out["cubic_bla"].frf.real))
            values[f"sweep{k}.resonances_hz"] = out["resonances"]
            values[f"sweep{k}.cubic_bla_over_3var"] = cubic_gain / 3.0
            values[f"sweep{k}.low_level_duffing_bla_vs_zoh"] = float(
                np.max(np.abs(low.frf - zoh)) / np.max(np.abs(zoh)))
            values[f"sweep{k}.tanks_bla_vs_linearised"] = tank_dev
            values[f"sweep{k}.u2_case_even_odd_db"] = out["even"]
            values[f"sweep{k}.u3_case_even_odd_db"] = out["odd"]
            problems += C.collect(
                C.spectrum_on_lines(f"sweep {k}: designed N={BIG_N} multisine",
                                    out["big_u"], out["big_spec"].amplitudes),
                C.strictly_increasing(f"sweep {k}: Duffing resonance over rising RMS",
                                      out["resonances"]),
                C.relative_close(f"sweep {k}: low-level Duffing BLA against the ZOH model",
                                 low.frf, zoh, 0.01),
                C.relative_close(f"sweep {k}: low-level tanks BLA against the linearised tanks",
                                 out["tanks_bla"][0].frf, tanks_lin[0], 0.01),
                C.strictly_increasing(f"sweep {k}: tanks BLA distance from the linearised "
                                      "model over rising RMS", tank_dev),
                C.within(f"sweep {k}: static cubic BLA over 3 sigma^2", cubic_gain / 3.0,
                         0.95, 1.05),
                C.distortion_kind(f"sweep {k}: u^2 case", *out["even"], "even"),
                C.distortion_kind(f"sweep {k}: u^3 case", *out["odd"], "odd"),
                C.equal_text(f"sweep {k}: process noise before the cube", out["process_noise"],
                             "nonstationary"))
        return problems, values
