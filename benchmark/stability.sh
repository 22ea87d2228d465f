#!/usr/bin/env bash
# Runs every workload's end-to-end pass twice on the same commit and
# fails unless the two sets agree on every end-to-end metric of every
# workload within the metric's own bound (BENCHMARK.json).  Extra
# arguments (--seed, --seconds) go to both sets.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"

for set in a b; do
    "$here/run.sh" --trace 0 "$@"
    cp "$out/latest.json" "$out/stability-$set.json"
done
"$here/run.sh" --compare "$out/stability-a.json" "$out/stability-b.json"
