"""Compare two result files of one workload and seed for bit-identity.

Usage::

    python3 perfbench/compare.py A.json B.json

Prints every input whose smooth digest, full-output digest or per-stage
iteration counts differ between the untraced calls of the two reports, and
exits with status 1 if any does.  Inputs present in only one report (a run
that fitted more calls in its time budget) are not compared.
"""

from __future__ import annotations

import json
import sys


def _by_input(path: str) -> dict[int, dict]:
    with open(path) as fh:
        report = json.load(fh)
    return {c["input"]: c for c in report["calls"]
            if not c["traced"] and not c["failures"]}


def differences(a: dict[int, dict], b: dict[int, dict]) -> list[str]:
    out = []
    for i in sorted(a.keys() & b.keys()):
        for key in ("trial_seed", "smooth_sha256", "outputs_sha256"):
            if a[i][key] != b[i][key]:
                out.append(f"input {i}: {key} {a[i][key]} != {b[i][key]}")
        iters_a = [s["iters"] for s in a[i]["stages"]]
        iters_b = [s["iters"] for s in b[i]["stages"]]
        if iters_a != iters_b:
            out.append(f"input {i}: stage iterations {iters_a} != {iters_b}")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (_by_input(p) for p in argv)
    diffs = differences(a, b)
    for line in diffs:
        print(line)
    print(f"{len(a.keys() & b.keys())} inputs compared, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
