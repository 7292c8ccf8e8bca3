"""Per-layer metrics assembled from the spans of a traced run.

Layers are the package modules.  ``solver``'s calls into ``kernel`` and
``prox`` are seen through the names ``solver`` imported them under, the
stage solves through the name ``pipeline`` imported, and ``synth`` through
``generate_trial``.  ``core`` runs only inside these callers and is not
measured on its own.

Count metrics (iterations, calls, sizes, flags) are means over a run's
quality calls and repeat exactly for one seed; time metrics are medians
over every traced call.  A metric whose spans never appear is ``None``
(reported as missing), never zero.

``PER_LAYER`` holds the metrics of the result line (``per_layer`` in
``BENCHMARK.json``); each exists on every workload.  ``REPORT_ONLY`` holds
those that exist on some workloads only (the coarse stages, which
``desk_basic`` does not run, and ``generate_trial``, which ``long_signal``
does not call); they go to the report file alone.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracer import Tracer
from workloads import BASIC_STAGES, DEBIASED_STAGES

SOLVE = "envelofit.pipeline.solve_constrained_filter"
RESOLVENT = "envelofit.solver.apply_resolvent"
REFLECT = "envelofit.solver.reflect_g"
RESIDUAL = "envelofit.solver.residual"
BAND = "envelofit.solver.build_band"
EMBED = "envelofit.solver.embed_circulant"
GENERATE = "envelofit.synth.generate_trial"

#: Spans the benchmark opens itself around its calls into a layer.
DECOMPOSE = "decompose"
INPUT = "input"
FIR = "baseline.fir"


def _solve_attrs(args, kwargs, out):
    p = args[0] if args else kwargs["p"]
    return {"alpha": p.alpha, "tol_abs": p.tol_abs, "max_iters": p.max_iters,
            "iters": out.iters, "converged": out.converged,
            "residual_inf": out.residual_inf}


def _band_attrs(args, kwargs, out):
    return {"K": out.half_width}


def _embed_attrs(args, kwargs, out):
    return {"M": out.size, "eig_min": float(out.eigenvalues.min()),
            "eig_max": float(out.eigenvalues.max())}


def new_tracer() -> Tracer:
    return Tracer({
        SOLVE: _solve_attrs,
        RESOLVENT: None,
        REFLECT: None,
        RESIDUAL: None,
        BAND: _band_attrs,
        EMBED: _embed_attrs,
        GENERATE: None,
    })


COUNT, TIME = "count", "time"

_STAGE_FIELDS = (
    ("iters", "count", COUNT),
    ("wall_s", "s", TIME),
    ("converged", "ratio", COUNT),
    ("residual_over_tol", "ratio", COUNT),
    ("alpha", "1", COUNT),
    ("M", "count", COUNT),
    ("K", "count", COUNT),
    ("eig_min", "1", COUNT),
    ("eig_max", "1", COUNT),
)

def _stage_metrics(stages):
    return [(f"solver.{st}.{f}", u, k) for st in stages for f, u, k in _STAGE_FIELDS]


#: (name, unit, kind) of every per-layer metric of the result line, in order.
PER_LAYER = [
    ("synth.input_s", "s", TIME),
    ("kernel.apply_resolvent_us", "us", TIME),
    ("kernel.apply_resolvent_calls", "count", COUNT),
    ("kernel.embed_circulant_s", "s", TIME),
    ("kernel.fft_flops_computed", "flop", COUNT),
    ("kernel.fft_bytes_computed", "B", COUNT),
    ("prox.reflect_g_us", "us", TIME),
    ("prox.reflect_g_calls", "count", COUNT),
    ("solver.iters_per_call", "count", COUNT),
    ("solver.capped_frac", "ratio", COUNT),
    ("solver.converged_frac", "ratio", COUNT),
    ("solver.iter_us", "us", TIME),
    ("solver.loop_self_us", "us", TIME),
    ("solver.residual_us", "us", TIME),
    ("solver.residual_calls", "count", COUNT),
    *_stage_metrics(BASIC_STAGES),
    ("pipeline.self_s", "s", TIME),
    ("pipeline.smooth_mse", "1", COUNT),
    ("baseline.fir_s", "s", TIME),
    ("trace.overhead_frac", "ratio", TIME),
]

#: Per-layer metrics of the report file alone: not every workload has them.
REPORT_ONLY = [
    ("synth.generate_trial_s", "s", TIME),
    *_stage_metrics(s for s in DEBIASED_STAGES if s not in BASIC_STAGES),
]


def fft_flops(m: int) -> float:
    """Computed flops of one resolvent: a real FFT pair, 2.5 M log2 M each."""
    return 5.0 * m * math.log2(m)


def fft_bytes(m: int) -> float:
    """Computed compulsory bytes of one resolvent's FFT pair (float64 in,
    complex128 half spectrum out, and back); cache misses are ignored."""
    return 2.0 * (8.0 * m + 16.0 * (m // 2 + 1))


class SpanIndex:
    """Children lists and durations over a tracer's spans."""

    def __init__(self, tr: Tracer):
        self.tr = tr
        self.children: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(tr.spans):
            self.children[s[3]].append(i)

    def name(self, i: int) -> str:
        return self.tr.spans[i][0]

    def dur(self, i: int) -> float:
        s = self.tr.spans[i]
        return s[2] - s[1]

    def attrs(self, i: int) -> dict:
        return self.tr.attrs.get(i, {})

    def kids(self, i: int, name: str) -> list[int]:
        return [c for c in self.children[i] if self.name(c) == name]

    def descendants(self, i: int):
        stack = list(self.children[i])
        while stack:
            c = stack.pop()
            yield c
            stack.extend(self.children[c])

    def roots(self, name: str) -> list[int]:
        return [i for i in self.children[-1] if self.name(i) == name]


def _per_call(ix: SpanIndex, root: int, stages: tuple[str, ...]) -> dict:
    """Per-layer values of one traced decompose call (None: not measured)."""
    n = defaultdict(int)
    t = defaultdict(float)
    for c in ix.descendants(root):
        n[ix.name(c)] += 1
        t[ix.name(c)] += ix.dur(c)

    def per_call_us(name):
        return 1e6 * t[name] / n[name] if n[name] else None

    v = {
        "kernel.apply_resolvent_us": per_call_us(RESOLVENT),
        "kernel.apply_resolvent_calls": n[RESOLVENT] or None,
        "kernel.embed_circulant_s": t[EMBED] if n[EMBED] else None,
        "prox.reflect_g_us": per_call_us(REFLECT),
        "prox.reflect_g_calls": n[REFLECT] or None,
        "solver.residual_us": per_call_us(RESIDUAL),
        "solver.residual_calls": n[RESIDUAL] or None,
    }
    solves = ix.kids(root, SOLVE)
    if len(solves) != len(stages):
        return v  # stage solves unseen: every solver/stage metric is missing
    iters = [ix.attrs(s)["iters"] for s in solves]
    wall = [ix.dur(s) for s in solves]
    self_t = [ix.dur(s) - sum(ix.dur(c) for c in ix.children[s]) for s in solves]
    total_iters = sum(iters)
    v.update({
        "solver.iters_per_call": total_iters,
        "solver.capped_frac": sum(
            ix.attrs(s)["iters"] >= ix.attrs(s)["max_iters"] for s in solves) / len(solves),
        "solver.converged_frac": sum(ix.attrs(s)["converged"] for s in solves) / len(solves),
        "solver.iter_us": 1e6 * sum(wall) / total_iters,
        "solver.loop_self_us": 1e6 * sum(self_t) / total_iters,
        "pipeline.self_s": ix.dur(root) - sum(wall),
    })
    flops = nbytes = 0.0
    for st, s, w in zip(stages, solves, wall):
        a = ix.attrs(s)
        band = ix.kids(s, BAND)
        embed = ix.kids(s, EMBED)
        e = ix.attrs(embed[0]) if embed else {}
        m = e.get("M")
        n_res = len(ix.kids(s, RESOLVENT))
        if m is None or not n_res:
            flops = nbytes = None
        elif flops is not None:
            flops += n_res * fft_flops(m)
            nbytes += n_res * fft_bytes(m)
        v.update({
            f"solver.{st}.iters": a["iters"],
            f"solver.{st}.wall_s": w,
            f"solver.{st}.converged": float(a["converged"]),
            f"solver.{st}.residual_over_tol": a["residual_inf"] / a["tol_abs"],
            f"solver.{st}.alpha": a["alpha"],
            f"solver.{st}.M": m,
            f"solver.{st}.K": ix.attrs(band[0])["K"] if band else None,
            f"solver.{st}.eig_min": e.get("eig_min"),
            f"solver.{st}.eig_max": e.get("eig_max"),
        })
    v["kernel.fft_flops_computed"] = flops
    v["kernel.fft_bytes_computed"] = nbytes
    return v


def _aggregate(values: list, kind: str):
    if not values or any(x is None for x in values):
        return None
    if kind == COUNT:
        return float(statistics.fmean(values))
    return float(statistics.median(values))


def layer_metrics(tr: Tracer, roots: list[int], stages: tuple[str, ...],
                  n_quality: int, extra: dict[str, list]) -> dict[str, float | None]:
    """Every ``PER_LAYER`` and ``REPORT_ONLY`` metric over the ``DECOMPOSE`` spans ``roots`` of
    the calls that succeeded, in call order; ``extra`` supplies per-call
    values the spans do not hold (MSE, tracing overhead)."""
    ix = SpanIndex(tr)
    calls = [_per_call(ix, r, stages) for r in roots]
    inputs = ix.roots(INPUT)
    gen = [ix.dur(c) for r in inputs for c in ix.kids(r, GENERATE)]
    fir = [ix.dur(r) for r in ix.roots(FIR)]
    out = {}
    for name, _unit, kind in PER_LAYER + REPORT_ONLY:
        if name == "synth.input_s":
            vals = [ix.dur(r) for r in inputs]
        elif name == "synth.generate_trial_s":
            vals = gen
        elif name == "baseline.fir_s":
            vals = fir
        elif name in extra:
            vals = extra[name]
        else:
            vals = [c.get(name) for c in calls]
        if kind == COUNT:
            vals = vals[:n_quality]
        out[name] = _aggregate(vals, kind)
    return out
