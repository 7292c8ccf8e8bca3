"""The measured loop of one workload run, its metrics and its report."""

from __future__ import annotations

import contextlib
import glob
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass

import numpy as np
import scipy

from envelofit.baseline import default_baselines, lti_smooth_estimate
from envelofit.core import mse

import layers
from tracer import Tracer
from workloads import WORKLOADS, check_outputs, outputs_digest, smooth_digest, trial_seed

#: (name, unit) of every end-to-end metric, as in BENCHMARK.json.
END_TO_END = [
    ("setup_s", "s"),
    ("decompose_rel", "ratio"),
    ("iters_per_call", "count"),
    ("smooth_nmse", "ratio"),
    ("mse_ratio_vs_fir", "ratio"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
]

#: Samples the reference kernel streams per timing (about 0.5 s on a
#: shared 2-vCPU Xeon VM).
REF_SAMPLES = 12_500_000
REF_VECTORS = 10


class Reference:
    """A fixed numpy kernel (real FFT pair, spectral scaling, elementwise
    select) at the workload's size, timed before every call and once after
    the last.

    On a shared machine the speed of the same code drifts by up to 2x over
    minutes.  The kernel drifts with it, so the median call time over the
    kernel's median time in the same run varies far less from run to run
    than the call time alone.  It calls no envelofit code, so a change to
    the program cannot move it.
    """

    def __init__(self, n: int):
        self.m = 1 << (n - 1).bit_length()
        self.reps = max(1, REF_SAMPLES // self.m)
        # cycling over several vectors gives the kernel the solver's working
        # set: in L2 at desk scale, past it at 2^17
        self.x = np.random.default_rng(0).standard_normal((REF_VECTORS, self.m))
        self.h = 1.0 / (1.0 + np.linspace(0.0, 5.0, self.m // 2 + 1))

    def seconds(self) -> float:
        t = time.perf_counter()
        for k in range(self.reps):
            z = np.fft.irfft(np.fft.rfft(self.x[k % REF_VECTORS]) * self.h, n=self.m)
            np.where(z > 0.0, 0.5 * z, z + 1.0)
        return time.perf_counter() - t


@dataclass
class Report:
    result: dict  # the benchmark's last output line
    full: dict  # environment, every call and every metric
    summary: list[str]
    tracer: Tracer | None
    #: Result-line metrics that could not be measured; the run then prints
    #: no result line (the manifest needs a number for each).
    missing: list[str]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> list[str]:
    out = []
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = []
            for f in ("level", "type", "size"):
                with open(os.path.join(d, f)) as fh:
                    fields.append(fh.read().strip())
        except OSError:
            continue
        out.append("L{} {} {}".format(*fields))
    return out


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "envelofit_threads": os.environ.get("ENVELOFIT_THREADS"),
    }


def _metric(value, unit: str) -> dict:
    if value is None:
        return {"value": None, "unit": unit, "missing": True}
    return {"value": value, "unit": unit}


def _metrics(values: dict, units: list[tuple]) -> dict:
    return {n: _metric(values[n], u) for n, u, *_ in units}


def _median_over(records: list[dict], fn):
    return statistics.median(fn(r) for r in records) if records else None


def run(name: str, seed: int, seconds: float, trace: bool, import_s: float) -> Report:
    """Run workload ``name`` for ``seconds``; ``import_s`` is the time the
    process spent before this call."""
    w = WORKLOADS[name]
    tracer = layers.new_tracer() if trace else None
    baselines = default_baselines(10.0)
    prep_s: list[float] = []
    records: list[dict] = []

    def prepare(i: int):
        ts = trial_seed(seed, i)
        t = time.perf_counter()
        if tracer is None:
            trial = w.make_input(ts)
        else:
            with tracer.installed(), tracer.span(layers.INPUT):
                trial = w.make_input(ts)
        prep_s.append(time.perf_counter() - t)
        return ts, trial

    def best_fir_mse(trial) -> float:
        with tracer.span(layers.FIR) if tracer else contextlib.nullcontext():
            return min(mse(trial.smooth, lti_smooth_estimate(trial.observation, f)[0])
                       for f in baselines)

    def call(i: int, ts: int, trial, best_fir: float, traced: bool) -> dict:
        y = trial.observation
        rec = {"input": i, "trial_seed": ts, "traced": traced, "ref_s": ref.seconds()}
        try:
            if traced:
                with tracer.installed(), tracer.span(layers.DECOMPOSE) as root:
                    dec = w.decompose(y, w.params)
                start, end = tracer.spans[root][1:3]
                rec["wall_s"] = end - start
            else:
                t = time.perf_counter()
                dec = w.decompose(y, w.params)
                rec["wall_s"] = time.perf_counter() - t
        except Exception:  # a failing call is counted, and the run goes on
            traceback.print_exc()
            rec["failures"] = ["raised: " + traceback.format_exc(limit=1).strip()]
            return rec
        rec["failures"] = check_outputs(y, dec, w)
        rec.update(
            smooth_sha256=smooth_digest(dec),
            outputs_sha256=outputs_digest(dec),
            smooth_mse=mse(trial.smooth, dec.smooth),
            transient_power=float(np.mean(trial.transient.samples ** 2)),
            best_fir_mse=best_fir,
            stages=[{"stage": st, "iters": r.iters, "converged": r.converged,
                     "residual_inf": r.residual_inf}
                    for st, r in zip(w.stages, dec.diagnostics)],
        )
        if traced:
            rec["root_span"] = root
        return rec

    ts0, trial0 = prepare(0)
    ref = Reference(len(trial0.observation))
    t = time.perf_counter()
    w.decompose(trial0.observation, w.warmup_params())
    warm_s = time.perf_counter() - t

    t_loop = time.perf_counter()
    steps: list[float] = []  # wall time of each input's step of the loop
    i = 0
    # a new input starts only if a typical step still ends within the budget
    while i < w.min_calls or (time.perf_counter() - t_loop
                              + statistics.median(steps) <= seconds):
        t_step = time.perf_counter()
        ts, trial = (ts0, trial0) if i == 0 else prepare(i)
        best = best_fir_mse(trial)
        order = ((False, True) if i % 2 == 0 else (True, False)) if trace else (False,)
        pair = [call(i, ts, trial, best, traced) for traced in order]
        digests = {r.get("outputs_sha256") for r in pair}
        if len(digests) > 1:
            for r in pair:
                if r["traced"]:
                    r["failures"].append("traced outputs differ from untraced")
        records.extend(pair)
        steps.append(time.perf_counter() - t_step)
        i += 1
    loop_s = time.perf_counter() - t_loop
    ref_s = statistics.median([r["ref_s"] for r in records] + [ref.seconds()])

    failed = sum(bool(r["failures"]) for r in records)
    untraced = [r for r in records if not r["traced"] and not r["failures"]]
    quality = [r for r in untraced if r["input"] < w.min_calls]
    if trace:
        # DECOMPOSE spans of the traced calls that passed, in call order
        roots = [r["root_span"] for r in records if r["traced"] and not r["failures"]]
        # each input runs traced and untraced back to back, so the ratio of
        # the two is taken per input, where the machine's drift cancels
        walls: dict[int, dict[bool, float]] = {}
        for r in records:
            if not r["failures"]:
                walls.setdefault(r["input"], {})[r["traced"]] = r["wall_s"]
        overhead = [p[True] / p[False] - 1.0 for p in walls.values() if len(p) == 2]
        values = layers.layer_metrics(
            tracer, roots, w.stages, w.min_calls,
            extra={"pipeline.smooth_mse": [r["smooth_mse"] for r in quality],
                   "trace.overhead_frac": overhead})
        units = layers.PER_LAYER
        report_only = _metrics(values, layers.REPORT_ONLY)
        for dotted in sorted(tracer.missing_names):
            print(f"warning: {dotted} no longer exists; its metrics are missing")
    else:
        values = {
            "setup_s": import_s + warm_s + statistics.median(prep_s),
            "decompose_rel": _median_over(untraced, lambda r: r["wall_s"] / ref_s),
            "iters_per_call": _median_over(
                quality, lambda r: sum(s["iters"] for s in r["stages"])),
            "smooth_nmse": statistics.fmean(
                r["smooth_mse"] / r["transient_power"] for r in quality) if quality else None,
            "mse_ratio_vs_fir": _median_over(
                quality, lambda r: r["smooth_mse"] / r["best_fir_mse"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (len(records) - failed) / len(records),
        }
        units = END_TO_END
        report_only = {}
    metrics = _metrics(values, units)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    n = len(trial0.observation)
    full = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "n": n,
        "trial_seeds": sorted({r["trial_seed"] for r in records}),
        "min_calls": w.min_calls, "environment": environment(),
        "setup": {"import_s": import_s, "warmup_s": warm_s, "prepare_s": prep_s},
        "loop_s": loop_s, "reference": {"m": ref.m, "reps": ref.reps, "median_s": ref_s},
        "decompose_s": _median_over(untraced, lambda r: r["wall_s"]),
        "calls": records, "result": result, "report_only_metrics": report_only,
    }
    summary = [f"# {name} seed={seed} n={n} calls={len(records)} failed={failed} "
               f"loop={loop_s:.1f}s decompose_s={full['decompose_s']}"]
    summary += [f"{k:40s} {'missing' if m['value'] is None else format(m['value'], '.6g'):>14s} "
                f"{m['unit']}" for k, m in {**metrics, **report_only}.items()]
    missing = [k for k, m in metrics.items() if m["value"] is None]
    return Report(result=result, full=full, summary=summary, tracer=tracer,
                  missing=missing)
