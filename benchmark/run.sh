#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout.
#
#   benchmark/run.sh                                  all workloads, both passes
#   benchmark/run.sh --workload NAME --seed N --seconds N --trace 0|1
#   benchmark/run.sh --smoke                          tiny inputs, seconds in total
#
# Set CARGO_TARGET_DIR (for example to `target`) to share build output
# with the repository's own build; by default it goes to benchmark/target.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# The commit is part of the machine fingerprint printed with every
# result; a checkout that is not a git work tree reports "unknown".
if [ -z "${DSTRESS_BENCH_COMMIT:-}" ] && command -v git >/dev/null 2>&1 &&
    [ "$(git rev-parse --show-toplevel 2>/dev/null || true)" = "$root" ]; then
    DSTRESS_BENCH_COMMIT="$(git rev-parse --short HEAD)"
    export DSTRESS_BENCH_COMMIT
fi

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/dstress-benchmark" "$@"
