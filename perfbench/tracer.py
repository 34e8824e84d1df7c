"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each schaeffer module at
the place where the caller looks them up (a module that did ``from .airy
import airy_ai`` holds its own reference, so that reference is wrapped
too).  Every call becomes a span (name, start, end, parent, info) kept in
memory; ``layer_metrics`` folds the spans into the per-layer metrics.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from checks import N_CRITERIA

BLASCHKE = ("blaschke.power_coeffs", "blaschke.contour")
SIMPLEX = ("simplex.min_l1",)
WIENER = ("wiener_opt.phi", "wiener_opt.resolvent_norm", "wiener_opt.lower_bound")
AIRY = ("airy.ai", "airy.ai_prime")
ESTIMATES = ("asymptotics.uniform", "asymptotics.stationary")
CLOSED_FORMS = ("applicable_closed_forms", "thm_case1", "thm_case2", "thm_case2_log",
                "thm_case3", "thm_case4", "schaeffer_baseline")

# the counters two traced runs at one seed must reproduce exactly
DETERMINISTIC = ("simplex.pivots", "simplex.calls", "blaschke.fft_calls",
                 "blaschke.fft_points", "resolvent.bound_evals", "airy.calls")


def _fft_points(args, kwargs, result):
    return {"points": int(np.shape(result)[-1])}


def _dense_info(args, kwargs, result):
    return {"pivots": int(result[2]), "cols": int(np.shape(args[0])[1])}


def _phi_info(args, kwargs, result):
    return {"converged": bool(result.converged)}


def _estimate_info(args, kwargs, result):
    return {"branch_ok": bool(result.branch_ok)}


def _truth_key(args, kwargs, result):
    return {"key": (float(args[0]), int(args[1]))}


class Tracer:
    """Spans of one traced run.  Single-threaded: the CLI runs with
    ``--workers 1``, so a call's parent is the innermost open span."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, info dict]
        self._open = []
        self._patched = []

    def wrap(self, name, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1, {}]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as ex:
                span[4]["error"] = type(ex).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if info is not None:
                span[4].update(info(args, kwargs, result))
            return result
        return traced

    def _patch(self, owner, attr, name, info=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, info))

    def install(self):
        """Wrap every traced entry point; ``uninstall`` restores them."""
        from schaeffer import (acceptance, airy, asymptotics, blaschke, cli, resolvent,
                               simplex, wiener_opt)

        self._patch(cli, "main", "cli.main")
        self._patch(blaschke, "blaschke_power_coeffs", "blaschke.power_coeffs")
        self._patch(blaschke, "log_weighted_coeff_magnitude", "blaschke.contour")
        self._patch(np.fft, "fft", "numpy.fft", _fft_points)
        for owner in (simplex, wiener_opt):
            self._patch(owner, "min_l1_solution", "simplex.min_l1")
        self._patch(simplex, "dense_simplex", "simplex.dense", _dense_info)
        self._patch(wiener_opt, "phi_exact_truncated", "wiener_opt.phi", _phi_info)
        self._patch(wiener_opt, "resolvent_interpolation_norm", "wiener_opt.resolvent_norm")
        self._patch(wiener_opt, "phi_lower_bound", "wiener_opt.lower_bound")
        for owner in (airy, asymptotics, acceptance):
            self._patch(owner, "airy_ai", "airy.ai")
            self._patch(owner, "airy_ai_prime", "airy.ai_prime")
        self._patch(asymptotics, "uniform_airy_estimate", "asymptotics.uniform",
                    _estimate_info)
        self._patch(asymptotics, "stationary_phase_estimate", "asymptotics.stationary")
        self._patch(asymptotics, "weighted_truth", "asymptotics.truth", _truth_key)
        self._patch(asymptotics, "decay_exponent_fit", "asymptotics.fit")
        self._patch(resolvent, "optimize_rho", "resolvent.optimize")
        self._patch(resolvent, "mainlemma_log_bound", "resolvent.bound_eval")
        for attr in CLOSED_FORMS:
            self._patch(resolvent, attr, "resolvent.closed_form")
        # run_all iterates ALL_CRITERIA, which holds its own references
        for k in range(1, N_CRITERIA + 1):
            self._patch(acceptance, f"criterion_{k}", f"acceptance.c{k}")
            acceptance.ALL_CRITERIA[k - 1] = getattr(acceptance, f"criterion_{k}")

    def uninstall(self):
        from schaeffer import acceptance

        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        for k in range(1, N_CRITERIA + 1):
            acceptance.ALL_CRITERIA[k - 1] = getattr(acceptance, f"criterion_{k}")


class _SpanTree:
    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.children[s[3]].append(i)

    def duration(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def named(self, names):
        return [i for i, s in enumerate(self.spans) if s[0] in names]

    def has_ancestor(self, i, names):
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][3]
        return False

    def outermost(self, names):
        """Spans named in ``names`` with no ancestor named in ``names``."""
        return [i for i in self.named(names) if not self.has_ancestor(i, names)]

    def busy(self, names):
        return sum(self.duration(i) for i in self.outermost(names))

    def covered(self, i, names):
        """Time inside span i spent in descendants named in ``names``."""
        total = 0.0
        for c in self.children[i]:
            total += self.duration(c) if self.spans[c][0] in names else self.covered(c, names)
        return total

    def self_time(self, names, excluded):
        return sum(self.duration(i) - self.covered(i, excluded) for i in self.outermost(names))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics (name -> (value, unit)) from the spans of a run."""
    t = _SpanTree(spans)
    info = [s[4] for s in spans]
    cli_spans = t.named(("cli.main",))
    ffts = [i for i in t.named(("numpy.fft",)) if t.has_ancestor(i, BLASCHKE)]
    dense = t.named(("simplex.dense",))
    lps = t.named(SIMPLEX)
    phis = t.named(("wiener_opt.phi",))
    estimates = t.named(ESTIMATES)
    truths = t.named(("asymptotics.truth",))
    truth_ffts = [i for i in t.named(("blaschke.power_coeffs",))
                  if t.has_ancestor(i, ("asymptotics.truth",))]
    m = {
        "cli.self_s": (sum(t.duration(i) - sum(t.duration(c) for c in t.children[i])
                           for i in cli_spans), "s"),
        "blaschke.calls": (len(t.named(("blaschke.power_coeffs",))), "count"),
        "blaschke.busy_s": (t.busy(("blaschke.power_coeffs",)), "s"),
        "blaschke.fft_calls": (len(ffts), "count"),
        "blaschke.fft_points": (sum(info[i]["points"] for i in ffts), "count"),
        "blaschke.contour_s": (t.busy(("blaschke.contour",)), "s"),
        "simplex.calls": (len(lps), "count"),
        "simplex.busy_s": (t.busy(SIMPLEX), "s"),
        "simplex.pivots": (sum(info[i].get("pivots", 0) for i in dense), "count"),
        "simplex.cols": (sum(info[i].get("cols", 0) for i in dense), "count"),
        "simplex.errors": (sum(info[i].get("error") == "SimplexError" for i in lps), "count"),
        "wiener_opt.phi_calls": (len(phis), "count"),
        "wiener_opt.busy_s": (t.busy(WIENER), "s"),
        "wiener_opt.self_s": (t.self_time(WIENER, SIMPLEX + BLASCHKE), "s"),
        "wiener_opt.lp_per_phi": (_ratio(sum(t.has_ancestor(i, ("wiener_opt.phi",))
                                             for i in lps), len(phis)), "ratio"),
        "wiener_opt.certified_ratio": (_ratio(sum(info[i].get("converged", False)
                                                  for i in phis), len(phis)), "ratio"),
        "airy.calls": (len(t.named(AIRY)), "count"),
        "airy.busy_s": (t.busy(AIRY), "s"),
        "asymptotics.estimate_calls": (len(estimates), "count"),
        "asymptotics.self_s": (t.self_time(ESTIMATES, AIRY + BLASCHKE), "s"),
        "asymptotics.truth_calls": (len(truths), "count"),
        "asymptotics.fft_per_key": (_ratio(len(truth_ffts),
                                           len({info[i]["key"] for i in truths
                                                if "key" in info[i]})), "ratio"),
        "asymptotics.branch_fail": (sum(info[i].get("branch_ok") is False
                                        for i in estimates), "count"),
        "asymptotics.fit_s": (t.busy(("asymptotics.fit",)), "s"),
        "resolvent.optimize_calls": (len(t.named(("resolvent.optimize",))), "count"),
        "resolvent.busy_s": (t.busy(("resolvent.optimize",)), "s"),
        "resolvent.bound_evals": (len(t.named(("resolvent.bound_eval",))), "count"),
        "resolvent.closed_form_s": (t.busy(("resolvent.closed_form",)), "s"),
    }
    for k in range(1, N_CRITERIA + 1):
        m[f"acceptance.c{k}_s"] = (t.busy((f"acceptance.c{k}",)), "s")
    return m
