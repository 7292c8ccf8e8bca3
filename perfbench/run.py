"""envelofit benchmark: one workload per process, end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload desk_debiased --seed 3 --seconds 30 --trace 0

Workloads: ``desk_debiased``, ``desk_basic``, ``long_signal`` (see
``workloads.py``; metrics and method are described in ``README.md``).

Each run prepares one input per call and runs calls one after another,
starting a new one while a typical step still ends within ``--seconds``
(and always at least the workload's ``min_calls``); it checks every
call's outputs.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of
``layers.py``.  If one of them cannot be measured (a wrapped function is
gone, or every call failed), the run prints no result line and exits with
status 3.  A traced run calls each input untraced and traced, in
alternating order, and requires both outputs to match bit for bit.  A full
report (environment, every call, every metric) is written to
``perfbench/out/``, and a traced run also writes its spans there.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: BLAS threads, fixed before numpy loads; one thread keeps runs steady
#: (only the dense Cholesky of ``generate_trial`` uses BLAS).
BLAS_THREADS = "1"
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("desk_debiased", "desk_basic", "long_signal"))
    ap.add_argument("--seed", type=int, default=1001,
                    help="workload seed (>= 0); inputs derive from it")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="time budget of the measured loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "envelofit", "__init__.py")):
        print(f"envelofit sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in _BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("ENVELOFIT_THREADS", None)
    sys.path[:0] = [SRC, HERE]

    import envelofit

    if not os.path.abspath(envelofit.__file__).startswith(SRC + os.sep):
        print(f"envelofit imported from {envelofit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    report = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         import_s=time.perf_counter() - _T0)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if report.tracer is not None:
        report.tracer.write(stem + "-spans.npz")
    with open(stem + ".json", "w") as fh:
        json.dump(report.full, fh, indent=1)
    for line in report.summary:
        print(line)
    if report.missing:
        print("not measured, so no result line: " + ", ".join(report.missing)
              + f"; see {stem}.json", file=sys.stderr)
        return 3
    print(json.dumps(report.result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
