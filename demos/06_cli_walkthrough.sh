#!/bin/sh
# End-to-end walkthrough of the command-line interface.
# Everything is seeded, so re-running reproduces every CSV and spec.json bit
# for bit; the decompose diagnostics, peaks stats and filter JSON differ only
# in the absolute input path they record, a fresh mktemp directory each run,
# and the decompose diagnostics also in each stage's wall time.
set -e

out=$(mktemp -d)
echo "writing to $out"

# 1. generate a synthetic recording (observation + ground truth + spec)
envelofit synth --seed 7 --duration 60 --output-dir "$out/data"

# 2. decompose it (debiased variant; diagnostics land in a JSON next to it)
envelofit decompose "$out/data/observation.csv" --debias \
    --output-dir "$out/dec"

# 3. event timing on the extracted transient channel
envelofit peaks "$out/dec/observation_transient.csv" \
    --output-dir "$out/peaks"

# 4. a plain zero-delay lowpass, for comparison
envelofit filter "$out/data/observation.csv" --length 501 \
    --output-dir "$out/fir"

# 5. small benchmark: pipeline vs the baseline filter bank
envelofit bench --trials 2 --duration 120 --seed 3 \
    --max-iters 2000 --output-dir "$out/bench"

echo
echo "outputs:"
find "$out" -type f | sort
