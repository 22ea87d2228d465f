#!/usr/bin/env bash
# Source-level nondeterminism lint for the bit-identity invariant.
#
# The determinism suite (Sim == Socket, kill-and-resume
# bit-identity) can only catch nondeterminism that happens to fire; this
# lint forbids the constructs that *introduce* it at the source level in
# the crates on the share-critical path:
#
#   * `HashMap` / `HashSet` — randomized iteration order (std's
#     RandomState is seeded per process); use BTreeMap/BTreeSet or an
#     index-keyed Vec instead.
#   * `Instant::now` / `SystemTime` — wall-clock reads; results must be
#     a pure function of seeds and inputs.
#
# The bench crate is exempt (it exists to measure wall time).  A use
# that is provably harmless (metrics-only timing, test-only sets whose
# order is never observed) can be allowlisted INLINE by appending:
#
#     // lint:allow-nondeterminism -- <justification>
#
# The ` -- justification` part is mandatory: a bare marker does not
# pass.  Every allowlisted line is printed so reviewers see the current
# exemption surface.
set -euo pipefail
cd "$(dirname "$0")/.."

# Crates on the share-critical path: the engine (core), the GMW runtime
# (mpc) and the DStress transfer protocol (transfer).
LINT_DIRS=(crates/core/src crates/mpc/src crates/transfer/src)
PATTERN='HashMap|HashSet|Instant::now|SystemTime'
ALLOW='lint:allow-nondeterminism -- [^ ]'

offenders=$(grep -rnE "$PATTERN" "${LINT_DIRS[@]}" --include='*.rs' \
    | grep -vE "$ALLOW" || true)

if [[ -n "$offenders" ]]; then
    echo "nondeterminism lint: forbidden constructs on the share-critical path:" >&2
    echo "$offenders" >&2
    echo >&2
    echo "Use BTreeMap/BTreeSet (deterministic iteration) or thread timing" >&2
    echo "through the bench crate.  If the use is provably harmless, append" >&2
    echo "  // lint:allow-nondeterminism -- <justification>" >&2
    exit 1
fi

allowed=$(grep -rnE "$ALLOW" "${LINT_DIRS[@]}" --include='*.rs' || true)
count=0
if [[ -n "$allowed" ]]; then
    count=$(printf '%s\n' "$allowed" | wc -l)
    echo "nondeterminism lint: ${count} allowlisted line(s):"
    printf '%s\n' "$allowed" | sed 's/^/  /'
fi
echo "nondeterminism lint: clean (${count} allowlisted)"
