"""Recreate ``data/c5_model.json``, the fitted model that ``pnlss_reduce`` reduces.

It is the criterion-5 acceptance fixture: the BLA of realizations 0..3, a
second-order linear start, and ``fit_pnlss`` with state degree 3 on
realization 0 at the library's default iteration limit.  It takes about
15 s on one core.  Run from the repository root:

    python bench/make_reduce_model.py
"""

import bootstrap

bootstrap.import_nlsid()

from nlsid import bla, pnlss, serialize  # noqa: E402

import duffing_c5 as c5  # noqa: E402

MODEL_PATH = bootstrap.BENCH_DIR / "data" / "c5_model.json"
TRAIN_SEEDS = (0, 1, 2, 3)


def main() -> None:
    spec = c5.spec()
    recs = [c5.realization(s, spec) for s in TRAIN_SEEDS]
    lin, _ = pnlss.init_linear_from_bla(bla.estimate_bla_spectral(recs, spec), c5.STATE_DIM)
    model, report = pnlss.fit_pnlss(lin, recs[0], spec.excited_lines,
                                    state_degree=c5.STATE_DEGREE)
    MODEL_PATH.parent.mkdir(parents=True, exist_ok=True)
    serialize.write_json(MODEL_PATH, {"model": model.to_dict(),
                                      "train_seeds": list(TRAIN_SEEDS),
                                      "iterations": report.iterations,
                                      "status": report.status,
                                      "final_rms_time": report.final_rms_time})
    print(f"wrote {MODEL_PATH}: {report.iterations} LM iterations, {report.status}, "
          f"training RMS {report.final_rms_time:.3e}")


if __name__ == "__main__":
    main()
