#!/usr/bin/env bash
# The benchmark's one command: builds the release binary, then runs it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out FILE]
#   benchmark/run.sh compare <a.jsonl> <b.jsonl>
#   benchmark/run.sh --regen-reference
#
# Without --workload every workload runs, each in a process of its own
# (peak RSS is per process). Exits non-zero on any correctness failure.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/morestress-benchmark"

export MORESTRESS_BENCH_DIR="$here"
MORESTRESS_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
MORESTRESS_BENCH_COMMIT="$(git -C "$here" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
export MORESTRESS_BENCH_RUSTC MORESTRESS_BENCH_COMMIT

case " $* " in
  *" --workload "* | " compare "* | *" --regen-reference "* | *" --help "* | *" -h "*)
    exec "$bin" "$@"
    ;;
esac

status=0
for workload in cold_array load_sweep placement_loop model_build; do
  "$bin" --workload "$workload" "$@" || status=$?
done
exit "$status"
