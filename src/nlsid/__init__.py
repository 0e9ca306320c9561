"""Nonlinear system identification toolkit.

Workflow modules: excitation design (:mod:`nlsid.signals`), benchmark
simulators (:mod:`nlsid.simulators`), nonparametric noise/distortion analysis
(:mod:`nlsid.nonparam`), best linear approximation (:mod:`nlsid.bla`),
parametric models (:mod:`nlsid.narx`, :mod:`nlsid.pnlss`,
:mod:`nlsid.volterra`), polynomial decoupling (:mod:`nlsid.decouple`) and
model validation (:mod:`nlsid.validate`).
"""

from .signals import (MultisineSpec, SignalRecord, design_multisine,
                      flat_amplitude_spec, full_grid, odd_grid, random_phases)
from .simulators import (BlockOrientedSpec, DuffingParams, LinearBlock,
                         NoiseSpec, TanksParams, default_duffing,
                         simulate_block_oriented, simulate_duffing,
                         simulate_static, simulate_tanks)
from .nonparam import (DistortionReport, ProcessNoiseReport, classify_lines,
                       detect_process_noise, sample_statistics)
from .bla import BlaModel, bla_shift_study, estimate_bla_spectral
from .polybasis import (MonomialBasis, PolyMap, enumerate_monomials,
                        eval_polymap, jacobian_polymap)
from .narx import NarxModel, fit_narx, simulate_free_run
from .pnlss import (FitReport, PnlssModel, fit_pnlss, fit_pnlss_decoupled,
                    init_linear_from_bla, simulate_pnlss, single_branch_init)
from .volterra import RegularizerSpec, VolterraModel, eval_volterra, fit_volterra
from .decouple import (DecoupledFunction, decouple_approx, decouple_exact,
                       eval_decoupled, to_polymap)
from .validate import (ValidationReport, domain_coverage, fit_metric,
                       residual_tests, validation_report)

__version__ = "0.1.0"
