#!/usr/bin/env bash
# Repo verification: the tier-1 gate (ROADMAP.md) plus formatting and
# lints, with a per-step PASS/FAIL summary.
#
#   scripts/verify.sh          # tier-1 (chaos suites included) + fmt + clippy
#   scripts/verify.sh --full   # additionally run the whole workspace's tests
#
# Every step runs even when an earlier one fails, so one invocation
# reports everything that is broken; the script exits non-zero if any
# step failed.

set -euo pipefail
cd "$(dirname "$0")/.."

steps=()
results=()
failures=0

run_step() { # run_step NAME CMD...
    local name="$1"
    shift
    echo "==> $name: $*"
    local result=PASS
    if ! "$@"; then
        result=FAIL
        failures=$((failures + 1))
    fi
    steps+=("$name")
    results+=("$result")
}

run_step "fmt" cargo fmt --check
run_step "clippy" cargo clippy --workspace --all-targets -- -D warnings
run_step "tier-1 build" cargo build --release
# The root package's tests include the five pinned chaos suites
# (tests/{chaos,rollout_chaos,trainer_chaos,net_chaos,wal_chaos}.rs).
run_step "tier-1 tests" cargo test -q
run_step "net crate tests" cargo test -q -p mobirescue-net
# Scale gate only (routing/serve gates have their own CI jobs); medium
# preset with a loosened ceiling — verify machines vary more than the
# bless machine, and the exact checksum is the load-bearing part.
run_step "scale bench gate" env ROUTING_GATE=0 SERVE_GATE=0 SCALE_PRESETS=medium \
    SCALE_MAX_SLOWDOWN_PCT=150 scripts/check_bench.sh

if [[ "${1:-}" == "--full" ]]; then
    run_step "full workspace tests" cargo test --workspace --release -q
fi

echo
echo "verify summary:"
for i in "${!steps[@]}"; do
    printf '  %-22s %s\n' "${steps[$i]}" "${results[$i]}"
done

if [[ "$failures" -gt 0 ]]; then
    echo "verify: $failures step(s) FAILED"
    exit 1
fi
echo "verify: OK"
