"""Spans and counters around every call into the public functions of nlsid.

The traced run replaces each public function of each layer (a module of
``src/nlsid``) by a wrapper, under every module name through which the
program reaches it: ``eval_monomials`` is patched in ``polybasis`` and also
in ``pnlss`` and ``narx``, which import it, and function tables such as
``cli.COMMANDS`` are patched too.  Nothing inside the program changes.

Each wrapper adds its call to per-function totals: calls, inclusive time,
self time (inclusive time minus the time of wrapped calls made inside it) and,
for the simulators, samples.  Calls that are not in ``HOT`` also leave a
span record (name, start, end, parent) in memory; hot functions run once per
simulated sample or per ALS sweep, so they are counted and timed but leave no
record.  One private function is counted because no public one marks its
work: ``decouple._cpd_error`` runs once per CPD-ALS sweep.
"""

from __future__ import annotations

import functools
import time
import types

LAYERS = ("signals", "simulators", "nonparam", "bla", "polybasis", "narx", "pnlss",
          "volterra", "decouple", "validate", "serialize", "cli")

PRIVATE_COUNTED = frozenset({"decouple._cpd_error"})
HOT = frozenset({"polybasis.eval_monomials", "decouple.eval_decoupled",
                 "decouple._cpd_error"})
SAMPLED = frozenset({"simulators.simulate_duffing", "simulators.simulate_tanks",
                     "pnlss.simulate_pnlss"})
FITS = frozenset({"pnlss.fit_pnlss", "pnlss.fit_pnlss_decoupled"})


class Tracer:
    """Installs the wrappers, accumulates totals, and takes snapshots."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s, samples]
        self.spans: list[list] = []
        self.stack: list[list] = []   # open calls: [child seconds, span index]
        self.top_s = 0.0              # time in wrapped calls made from outside nlsid
        self.fit_depth = 0
        self.sims_in_fits = 0
        self.lm_iterations = 0
        self.lm_accepted = 0
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ install

    def install(self, package) -> None:
        """Wrap every public function of every layer under every name."""
        modules = [package] + [getattr(package, name) for name in LAYERS]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                name = self._traced_name(value)
                if name is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(name, value)
                self._patch(module, attr, wrappers[id(value)])
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, dict) and any(id(v) in wrappers for v in value.values()):
                    patched = {k: wrappers.get(id(v), v) for k, v in value.items()}
                    self._patch(module, attr, patched)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _patch(self, module, attr, new) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    @staticmethod
    def _traced_name(value) -> str | None:
        if not isinstance(value, types.FunctionType):
            return None
        parts = value.__module__.split(".")
        if len(parts) != 2 or parts[0] != "nlsid" or parts[1] not in LAYERS:
            return None
        name = f"{parts[1]}.{value.__name__}"
        if value.__name__.startswith("_") and name not in PRIVATE_COUNTED:
            return None
        return name

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self
        record = name not in HOT
        sampled = name in SAMPLED
        is_fit = name in FITS
        is_sim = name == "pnlss.simulate_pnlss"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, -1]
            if record:
                frame[1] = len(spans)
                span = [name, 0.0, 0.0, stack[-1][1] if stack else -1]
                spans.append(span)
            if is_fit:
                tracer.fit_depth += 1
            elif is_sim and tracer.fit_depth:
                tracer.sims_in_fits += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    tracer.top_s += dt
                if record:
                    span[1] = t0
                    span[2] = t1
                if is_fit:
                    tracer.fit_depth -= 1
            if sampled:
                stat[3] += len(args[1] if len(args) > 1 else kwargs["u"])
            if is_fit:
                report = result[1]
                tracer.lm_iterations += report.iterations
                tracer.lm_accepted += len(report.cost_trajectory) - 1
            return result

        return traced

    # ---------------------------------------------------------------- snapshots

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "top_s": self.top_s,
            "sims_in_fits": self.sims_in_fits,
            "lm_iterations": self.lm_iterations,
            "lm_accepted": self.lm_accepted,
        }


def difference(after: dict, before: dict) -> dict:
    """Totals accumulated between two snapshots."""
    stats = {}
    for name, vals in after["stats"].items():
        prev = before["stats"].get(name, [0, 0.0, 0.0, 0])
        stats[name] = [a - b for a, b in zip(vals, prev)]
    out = {k: after[k] - before[k] for k in after if k != "stats"}
    out["stats"] = stats
    return out


def scaled(totals: dict, factor: float) -> dict:
    out = {k: v * factor for k, v in totals.items() if k != "stats"}
    out["stats"] = {k: [x * factor for x in v] for k, v in totals["stats"].items()}
    return out


def combined(a: dict, b: dict) -> dict:
    out = {k: a[k] + b[k] for k in a if k != "stats"}
    out["stats"] = {k: [x + y for x, y in zip(a["stats"][k], b["stats"][k])]
                    for k in a["stats"]}
    return out


def layer_self(totals: dict) -> dict:
    """Self seconds per layer."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, self_s, _) in totals["stats"].items():
        out[name.split(".")[0]] += self_s
    return out


# Per-layer metrics: name -> (unit, the functions that must be called on a
# workload that names the metric, and how the value is computed).

def _calls(t, *names):
    return sum(t["stats"][n][0] for n in names)


def _total(t, *names):
    return sum(t["stats"][n][1] for n in names)


def _self(t, *names):
    return sum(t["stats"][n][2] for n in names)


def _samples(t, *names):
    return sum(t["stats"][n][3] for n in names)


def _layer_names(t, layer):
    return [n for n in t["stats"] if n.split(".")[0] == layer]


def _per_sample_us(t, *names):
    samples = _samples(t, *names)
    return 1e6 * _self(t, *names) / samples if samples else 0.0


RK4 = ("simulators.simulate_duffing", "simulators.simulate_tanks")

PER_LAYER = {
    "signals.design_s": ("s", ("signals.design_multisine",),
                         lambda t: _self(t, "signals.design_multisine")),
    "simulators.simulate_s": ("s", RK4,
                              lambda t: _self(t, *_layer_names(t, "simulators"))),
    "simulators.us_per_sample": ("us", RK4, lambda t: _per_sample_us(t, *RK4)),
    "nonparam.stats_s": ("s", ("nonparam.sample_statistics",),
                         lambda t: _self(t, *_layer_names(t, "nonparam"))),
    "bla.estimate_s": ("s", ("bla.estimate_bla_spectral",),
                       lambda t: _self(t, *_layer_names(t, "bla"))),
    "polybasis.eval_calls": ("count", ("polybasis.eval_monomials",),
                             lambda t: _calls(t, "polybasis.eval_monomials")),
    "polybasis.eval_s": ("s", ("polybasis.eval_monomials",),
                         lambda t: _self(t, *_layer_names(t, "polybasis"))),
    "pnlss.simulate_s": ("s", ("pnlss.simulate_pnlss",),
                         lambda t: _total(t, "pnlss.simulate_pnlss")),
    "pnlss.simulate_calls": ("count", ("pnlss.simulate_pnlss",),
                             lambda t: _calls(t, "pnlss.simulate_pnlss")),
    "pnlss.us_per_sample": ("us", ("pnlss.simulate_pnlss",),
                            lambda t: 1e6 * _total(t, "pnlss.simulate_pnlss")
                            / max(_samples(t, "pnlss.simulate_pnlss"), 1)),
    "pnlss.fit_self_s": ("s", tuple(FITS), lambda t: _self(t, *FITS)),
    "pnlss.lm_iterations": ("count", tuple(FITS), lambda t: t["lm_iterations"]),
    "pnlss.lm_accept_ratio": ("ratio", tuple(FITS),
                              lambda t: t["lm_accepted"] / max(t["sims_in_fits"], 1)),
    "pnlss.single_branch_init_s": ("s", ("pnlss.single_branch_init",),
                                   lambda t: _total(t, "pnlss.single_branch_init")),
    "decouple.cpd_s": ("s", ("decouple.cpd_als",), lambda t: _total(t, "decouple.cpd_als")),
    "decouple.cpd_sweeps": ("count", ("decouple._cpd_error",),
                            lambda t: _calls(t, "decouple._cpd_error")),
    "decouple.refine_s": ("s", ("decouple.decouple_approx",),
                          lambda t: _self(t, "decouple.decouple_exact",
                                          "decouple.decouple_approx")),
    "decouple.eval_calls": ("count", ("decouple.eval_decoupled",),
                            lambda t: _calls(t, "decouple.eval_decoupled")),
    "narx.fit_s": ("s", ("narx.fit_narx",), lambda t: _total(t, "narx.fit_narx")),
    "narx.simulate_s": ("s", ("narx.simulate_free_run",),
                        lambda t: _total(t, "narx.simulate_free_run")),
    "volterra.fit_s": ("s", ("volterra.fit_volterra",),
                       lambda t: _total(t, "volterra.fit_volterra")),
    "validate.report_s": ("s", ("validate.validation_report",),
                          lambda t: _total(t, "validate.validation_report")),
    "serialize.read_s": ("s", ("serialize.read_signal_record",),
                         lambda t: _self(t, "serialize.read_signal_record",
                                         "serialize.read_json")),
    "serialize.write_s": ("s", ("serialize.write_signal_record",),
                          lambda t: _self(t, "serialize.write_signal_record",
                                          "serialize.write_json", "serialize.write_csv")),
    "cli.self_s": ("s", ("cli.cmd_pipeline",), lambda t: _self(t, *_layer_names(t, "cli"))),
}


def uncalled(metrics, totals: dict) -> list[str]:
    """The metrics among ``metrics`` whose source functions were never called."""
    return [name for name in metrics
            if not any(totals["stats"].get(f, [0])[0] for f in PER_LAYER[name][1])]
