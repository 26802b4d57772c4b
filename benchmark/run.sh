#!/usr/bin/env bash
# Build the benchmark (offline, from this directory's own manifest) and
# run it with the arguments given:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh all [--sets K] [--seed N] [--seconds S] [--out FILE]
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh spec
#
# The build goes to $CARGO_TARGET_DIR if set, else to target/ beside this
# script. Span files, results and the runtime's Unix sockets go to out/
# beside this script, so nothing is written outside the checkout.
set -euo pipefail

# Kept relative when invoked relatively: Unix socket paths are limited to
# about a hundred bytes.
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"

# No --locked: a later change to the repository's crates may add one, and
# the lock file here must be allowed to follow it.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

mkdir -p "$here/out/tmp"
export DSE_BENCH_OUT="$here/out"
export TMPDIR="$here/out/tmp"
exec "$target/release/dse-benchmark" "$@"
