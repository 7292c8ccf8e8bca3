"""Command-line front end.

Subcommands::

    envelofit decompose INPUT.csv   smooth/transient decomposition
    envelofit synth                 synthetic trial generation
    envelofit bench                 multi-trial MSE benchmark
    envelofit peaks INPUT.csv       peak picking + interval statistics
    envelofit filter INPUT.csv      FIR baseline filtering

Every successful run writes a metadata JSON holding the resolved parameters,
enough to reproduce the outputs exactly.  Exit codes: 0 success; 1 numerical
failure (``NumericalError``: a factorization or spectral solve failed on valid
input); 2 usage or input error (``InputError``: an invalid argument, length,
bound, signal or file).
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
from .io import read_signal_csv, write_json, write_signal_csv
from .pipeline import (
    BASIC_STAGES,
    DEBIASED_STAGES,
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


def _positive(value: str) -> float:
    x = float(value)
    if not x > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return x


def _positive_int(value: str) -> int:
    x = int(value)
    if not x > 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return x


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output-dir", default=".", help="directory for output files")
    p.add_argument("--quiet", action="store_true", help="suppress progress output")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    pp, s, c = PipelineParams(), SolverSettings(), CoarseParams()
    g = p.add_argument_group("pipeline / solver overrides")
    for flag, kind, default, text in (
        ("--lambda0", _positive, pp.lambda0, "envelope data-fit weight"),
        ("--lambda1", _positive, pp.lambda1, "smoothing data-fit weight"),
        ("--sigma0", _positive, pp.sigma0, "envelope kernel width, samples"),
        ("--sigma1", _positive, pp.sigma1, "smoothing kernel width, samples"),
        ("--coarse-lambda", _positive, c.lam, "coarse envelope weight for --debias"),
        ("--coarse-sigma", _positive, c.sigma,
         "coarse envelope kernel width for --debias"),
        ("--gamma", float, s.gamma, "averaging factor in (0,1)"),
        ("--alpha", _positive, s.alpha, "splitting step size; unset, each "
         "stage uses 2*sqrt(lambda*sigma)"),
        ("--tol", _positive, s.tol, "relative residual tolerance"),
        ("--max-iters", _positive_int, s.max_iters, "iteration cap per solve"),
        ("--tau", _positive, s.tau, "kernel truncation threshold; wide-kernel "
         "stages need a tight threshold for spectral headroom"),
    ):
        g.add_argument(flag, type=kind, default=default,
                       help=f"{text} (default %(default)s)")


def _pipeline_from_args(args, with_coarse: bool) -> PipelineParams:
    return PipelineParams(
        lambda0=args.lambda0,
        lambda1=args.lambda1,
        sigma0=args.sigma0,
        sigma1=args.sigma1,
        coarse=CoarseParams(args.coarse_lambda, args.coarse_sigma) if with_coarse else None,
        solver=SolverSettings(
            gamma=args.gamma,
            alpha=args.alpha,
            max_iters=args.max_iters,
            tol=args.tol,
            tau=args.tau,
        ),
    )


def _pipeline_meta(p: PipelineParams) -> dict:
    s = p.solver
    meta = {
        "lambda0": p.lambda0,
        "lambda1": p.lambda1,
        "sigma0": p.sigma0,
        "sigma1": p.sigma1,
        "gamma": s.gamma,
        "alpha": s.alpha,
        "tol": s.tol,
        "max_iters": s.max_iters,
        "tau": s.tau,
    }
    if p.coarse is not None:
        meta["coarse_lambda"] = p.coarse.lam
        meta["coarse_sigma"] = p.coarse.sigma
    return meta


def _out(args, name: str) -> str:
    os.makedirs(args.output_dir, exist_ok=True)
    return os.path.join(args.output_dir, name)


def cmd_decompose(args) -> int:
    sig = read_signal_csv(args.input, fs_override=args.fs)
    pipeline = _pipeline_from_args(args, with_coarse=args.debias)
    decompose, names = ((decompose_debiased, DEBIASED_STAGES) if args.debias
                        else (decompose_basic, BASIC_STAGES))
    dec = decompose(sig, pipeline)

    prefix = args.prefix or os.path.splitext(os.path.basename(args.input))[0]
    write_signal_csv(_out(args, f"{prefix}_smooth.csv"), dec.smooth)
    write_signal_csv(_out(args, f"{prefix}_transient.csv"), dec.transient)
    env_path = _out(args, f"{prefix}_envelopes.csv")
    with open(env_path, "w", newline="") as fh:
        fh.write("t,lower,upper\n")
        for t, lo, hi in zip(sig.times, dec.lower_env.samples, dec.upper_env.samples):
            fh.write(f"{t!r},{lo!r},{hi!r}\n")
    diagnostics = {
        "command": "decompose",
        "input": os.path.abspath(args.input),
        "debias": args.debias,
        "fs_hz": sig.sample_rate_hz,
        "parameters": _pipeline_meta(pipeline),
        "stages": [
            {
                "stage": name,
                "iters": r.iters,
                "residual_inf": r.residual_inf,
                "converged": r.converged,
            }
            for name, r in zip(names, dec.diagnostics)
        ],
    }
    write_json(_out(args, f"{prefix}_diagnostics.json"), diagnostics)
    if not args.quiet:
        print(f"wrote {prefix}_smooth.csv / _transient.csv / _envelopes.csv "
              f"/ _diagnostics.json in {args.output_dir}")
    failed = [name for name, r in zip(names, dec.diagnostics) if not r.converged]
    if failed:
        # flagged, not fatal: results are still feasible and usable
        print(f"warning: stage(s) did not reach tolerance: {', '.join(failed)}",
              file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    gps = {gp: GpParams(*(getattr(args, f"{gp}_{c}") for c in _GP_COEFFS))
           for gp in _GPS}
    spec = TrialSpec(seed=args.seed, fs_hz=args.fs, duration_s=args.duration, **gps)
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
    spec = TrialSpec(fs_hz=args.fs, duration_s=args.duration)
    baselines = default_baselines(args.fs, lengths=tuple(args.baseline_lengths))
    report = run_mse_experiment(
        args.trials, args.seed, pipeline, baselines, trial_spec=spec
    )
    write_report_csv(_out(args, "mse.csv"), report)
    with open(_out(args, "traces.csv"), "w", newline="") as fh:
        fh.write("trial_id,iter,residual\n")
        for trial_id in sorted(report.convergence_traces):
            for it, res in report.convergence_traces[trial_id]:
                fh.write(f"{trial_id},{it},{res!r}\n")
    meta = {
        "command": "bench",
        "trials": args.trials,
        "seed": args.seed,
        "fs_hz": args.fs,
        "duration_s": args.duration,
        "baseline_lengths": list(args.baseline_lengths),
        "parameters": _pipeline_meta(pipeline),
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
    with open(_out(args, "peaks.csv"), "w", newline="") as fh:
        fh.write("index,time_s\n")
        for idx in stats.peak_indices:
            fh.write(f"{idx},{sig.times[idx]!r}\n")
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
    _add_solver_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    ts = TrialSpec()
    p = sub.add_parser("synth", help="generate a synthetic trial")
    p.add_argument("--seed", type=int, default=ts.seed)
    p.add_argument("--fs", type=_positive, default=ts.fs_hz)
    p.add_argument("--duration", type=_positive, default=ts.duration_s)
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
    p.add_argument("--fs", type=_positive, default=ts.fs_hz)
    p.add_argument("--duration", type=_positive, default=ts.duration_s)
    p.add_argument("--baseline-lengths", type=_positive_int, nargs="+",
                   default=list(DEFAULT_BASELINE_LENGTHS),
                   help="Hamming lowpass lengths to compare against")
    _add_solver_flags(p)
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
