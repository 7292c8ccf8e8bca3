"""Command-line front end.

Subcommands::

    envelofit decompose INPUT.csv   smooth/transient decomposition
    envelofit synth                 synthetic trial generation
    envelofit bench                 multi-trial MSE benchmark
    envelofit peaks INPUT.csv       peak picking + interval statistics
    envelofit filter INPUT.csv      FIR baseline filtering

Every successful run writes a metadata JSON holding the resolved parameters,
enough to reproduce the outputs exactly.  Exit codes: 0 success; 1 numerical
failure (``NumericalError``: a factorization or spectral solve failed, or an
iteration diverged, on valid input); 2 usage or input error (``InputError``:
an invalid argument, length, bound, signal or file).  An error inside a
pipeline stage ends with the stage's name.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import __version__
from .baseline import (
    DEFAULT_BASELINE_LENGTHS,
    default_baselines,
    design_fir,
    filter_zero_delay,
)
from .bench import run_mse_experiment, write_report_csv
from .core import EnvelofitError, InputError, Signal
from .io import read_signal_csv, write_csv, write_json, write_signal_csv
from .pipeline import (
    CoarseParams,
    PipelineParams,
    SolverSettings,
    decompose_basic,
    decompose_debiased,
    detect_peaks,
)
from .synth import GpParams, TrialSpec, generate_trial

_GPS = ("warp", "mag", "transient")
_GP_COEFFS = ("c0", "c1", "c2")
#: Parameter classes whose knobs are the decompose/bench solver flags.
_PIPELINE = (PipelineParams, CoarseParams, SolverSettings)


def _positive(value: str) -> float:
    x = float(value)
    if not 0 < x < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return x


def _positive_int(value: str) -> int:
    x = int(value)
    if not x > 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return x


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output-dir", default=".", help="directory for output files")
    p.add_argument("--quiet", action="store_true", help="suppress progress output")


def _knobs(cls):
    """(name, field) of each ``cls`` field declared with ``core.knob``."""
    return [(f.metadata["name"] or f.name, f)
            for f in dataclasses.fields(cls) if "help" in f.metadata]


def _add_flags(p, *classes) -> None:
    for cls in classes:
        for name, f in _knobs(cls):
            kind = (float if not f.metadata["positive"]
                    else _positive_int if isinstance(f.default, int) else _positive)
            p.add_argument("--" + name.replace("_", "-"), type=kind, default=f.default,
                           help=f.metadata["help"] + " (default %(default)s)")


def _from_args(cls, args, **rest):
    return cls(**{f.name: getattr(args, name) for name, f in _knobs(cls)}, **rest)


def _pipeline_from_args(args, with_coarse: bool) -> PipelineParams:
    return _from_args(
        PipelineParams, args,
        coarse=_from_args(CoarseParams, args) if with_coarse else None,
        solver=_from_args(SolverSettings, args),
    )


def _parameters(p: PipelineParams) -> dict:
    """The ``parameters`` metadata: every knob of ``p``, by name."""
    return {name: getattr(obj, f.name) for obj in (p, p.coarse, p.solver)
            if obj is not None for name, f in _knobs(type(obj))}


def _out(args, name: str) -> str:
    os.makedirs(args.output_dir, exist_ok=True)
    return os.path.join(args.output_dir, name)


def cmd_decompose(args) -> int:
    sig = read_signal_csv(args.input, fs_override=args.fs)
    pipeline = _pipeline_from_args(args, with_coarse=args.debias)
    decompose = decompose_debiased if args.debias else decompose_basic
    dec = decompose(sig, pipeline)

    prefix = args.prefix or os.path.splitext(os.path.basename(args.input))[0]
    write_signal_csv(_out(args, f"{prefix}_smooth.csv"), dec.smooth)
    write_signal_csv(_out(args, f"{prefix}_transient.csv"), dec.transient)
    write_csv(_out(args, f"{prefix}_envelopes.csv"), ["t", "lower", "upper"],
              zip(sig.times, dec.lower_env.samples, dec.upper_env.samples))
    diagnostics = {
        "command": "decompose",
        "input": os.path.abspath(args.input),
        "debias": args.debias,
        "fs_hz": sig.sample_rate_hz,
        "parameters": _parameters(pipeline),
        "stages": [
            {
                "stage": r.stage,
                "iters": r.iters,
                "residual_inf": r.residual_inf,
                "converged": r.converged,
            }
            for r in dec.diagnostics
        ],
    }
    write_json(_out(args, f"{prefix}_diagnostics.json"), diagnostics)
    if not args.quiet:
        print(f"wrote {prefix}_smooth.csv / _transient.csv / _envelopes.csv "
              f"/ _diagnostics.json in {args.output_dir}")
    failed = [r.stage for r in dec.diagnostics if not r.converged]
    if failed:
        # flagged, not fatal: results are still feasible and usable
        print(f"warning: stage(s) did not reach tolerance: {', '.join(failed)}",
              file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    gps = {gp: GpParams(*(getattr(args, f"{gp}_{c}") for c in _GP_COEFFS))
           for gp in _GPS}
    spec = _from_args(TrialSpec, args, seed=args.seed, **gps)
    trial = generate_trial(spec)
    write_signal_csv(_out(args, "observation.csv"), trial.observation)
    write_signal_csv(_out(args, "smooth_truth.csv"), trial.smooth)
    write_signal_csv(_out(args, "transient_truth.csv"), trial.transient)
    write_json(_out(args, "spec.json"), {"command": "synth", **dataclasses.asdict(spec)})
    if not args.quiet:
        print(f"wrote observation/smooth_truth/transient_truth CSVs "
              f"({spec.n} rows) in {args.output_dir}")
    return 0


def cmd_bench(args) -> int:
    pipeline = _pipeline_from_args(args, with_coarse=True)
    spec = _from_args(TrialSpec, args)
    baselines = default_baselines(args.fs, lengths=tuple(args.baseline_lengths))
    report = run_mse_experiment(
        args.trials, args.seed, pipeline, baselines, trial_spec=spec
    )
    write_report_csv(_out(args, "mse.csv"), report)
    traces = report.convergence_traces
    write_csv(_out(args, "traces.csv"), ["trial_id", "iter", "residual"],
              ((i, it, res) for i in sorted(traces) for it, res in traces[i]))
    meta = {
        "command": "bench",
        "trials": args.trials,
        "seed": args.seed,
        "fs_hz": args.fs,
        "duration_s": args.duration,
        "baseline_lengths": list(args.baseline_lengths),
        "parameters": _parameters(pipeline),
        "ordering": list(report.ordering),
    }
    write_json(_out(args, "meta.json"), meta)
    if not args.quiet:
        prop = report.mses_for("proposed")
        print(f"{args.trials} trials, proposed MSE median {np.median(prop):.3e}")
    return 0


def cmd_peaks(args) -> int:
    sig = read_signal_csv(args.input, fs_override=args.fs)
    stats = detect_peaks(sig, args.min_separation, args.min_prominence)
    idx = stats.peak_indices
    write_csv(_out(args, "peaks.csv"), ["index", "time_s"], zip(idx, sig.times[idx]))
    payload = {
        "command": "peaks",
        "input": os.path.abspath(args.input),
        "min_separation_s": args.min_separation,
        "min_prominence": args.min_prominence,
        "n_peaks": int(stats.peak_indices.size),
        "mean_interval_s": None if math.isnan(stats.mean_interval_s) else stats.mean_interval_s,
        "std_interval_s": None if math.isnan(stats.std_interval_s) else stats.std_interval_s,
    }
    write_json(_out(args, "stats.json"), payload)
    if not args.quiet:
        print(f"{stats.peak_indices.size} peaks")
    return 0


def cmd_filter(args) -> int:
    sig = read_signal_csv(args.input, fs_override=args.fs)
    f = design_fir(args.kind, args.cutoff, sig.sample_rate_hz, args.length, args.window)
    out = filter_zero_delay(f, sig)
    prefix = args.prefix or os.path.splitext(os.path.basename(args.input))[0]
    write_signal_csv(_out(args, f"{prefix}_filtered.csv"), out)
    meta = {"command": "filter", "input": os.path.abspath(args.input), "filter": f.to_dict()}
    write_json(_out(args, f"{prefix}_filter.json"), meta)
    if not args.quiet:
        print(f"wrote {prefix}_filtered.csv in {args.output_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="envelofit",
        description="Smooth/transient signal decomposition via constrained filtering.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a signal CSV")
    p.add_argument("input", help="input CSV with header t,value")
    p.add_argument("--debias", action="store_true",
                   help="use coarse-envelope debiasing")
    p.add_argument("--fs", type=_positive, default=None,
                   help="override sample rate inferred from the t column")
    p.add_argument("--prefix", default=None, help="output filename prefix")
    _add_flags(p.add_argument_group("pipeline / solver overrides"), *_PIPELINE)
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    ts = TrialSpec()
    p = sub.add_parser("synth", help="generate a synthetic trial")
    p.add_argument("--seed", type=int, default=ts.seed)
    _add_flags(p, TrialSpec)
    for gp in _GPS:
        for c in _GP_COEFFS:
            # c2 is white jitter: zero is allowed
            p.add_argument(f"--{gp}-{c}", type=float if c == "c2" else _positive,
                           default=getattr(getattr(ts, gp), c))
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="run the multi-trial MSE benchmark")
    p.add_argument("--trials", type=_positive_int, default=20)
    p.add_argument("--seed", type=int, default=1)
    _add_flags(p, TrialSpec)
    p.add_argument("--baseline-lengths", type=_positive_int, nargs="+",
                   default=list(DEFAULT_BASELINE_LENGTHS),
                   help="Hamming lowpass lengths to compare against")
    _add_flags(p.add_argument_group("pipeline / solver overrides"), *_PIPELINE)
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("peaks", help="peak picking on a transient CSV")
    p.add_argument("input")
    p.add_argument("--fs", type=_positive, default=None)
    p.add_argument("--min-separation", type=_positive, default=0.33,
                   help="minimum peak spacing, seconds (default 0.33)")
    p.add_argument("--min-prominence", type=_positive, default=None,
                   help="default: 0.25 x 95th percentile of |signal|")
    _add_common(p)
    p.set_defaults(func=cmd_peaks)

    p = sub.add_parser("filter", help="apply a zero-delay FIR filter")
    p.add_argument("input")
    p.add_argument("--kind", choices=["lowpass", "bandpass"], default="lowpass")
    p.add_argument("--cutoff", type=_positive, nargs="+", default=[0.45],
                   help="cutoff frequency (Hz); two values for bandpass")
    p.add_argument("--length", type=_positive_int, default=1001)
    p.add_argument("--window", choices=["hamming", "rect"], default="hamming")
    p.add_argument("--fs", type=_positive, default=None)
    p.add_argument("--prefix", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_filter)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EnvelofitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 1


if __name__ == "__main__":
    sys.exit(main())
