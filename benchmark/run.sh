#!/usr/bin/env bash
# One command for the referee benchmark: build --release (the benchmark
# package and the repo's eagr-shard-host, into one target dir so the host
# binary sits next to the benchmark binary), then run it.
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--repeat K] [--vary-seed] [--smoke]
#
# The driver calls it as
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# and reads the last line of stdout. Build output goes to stderr.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# Explicit manifest paths: cargo must not wander into a parent directory.
cargo build --release --offline --manifest-path Cargo.toml --package eagr-shard-host >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

# Unix sockets of the shard hosts go under the checkout, by a relative
# path (a socket path may be at most ~100 bytes long).
mkdir -p benchmark/out/tmp
exec env TMPDIR=benchmark/out/tmp "$CARGO_TARGET_DIR/release/eagr_benchmark" "$@"
