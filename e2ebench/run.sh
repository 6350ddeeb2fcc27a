#!/usr/bin/env bash
# Builds the benchmark and `segsim` from this checkout, then runs one
# workload: bash e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build) and to stderr, so the last line of stdout stays
# the benchmark's result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --manifest-path e2ebench/Cargo.toml >&2
cargo build --release --quiet --bin segsim >&2
# host facts the result records; taken here so no compiler or git
# process runs inside the measured program
export E2EBENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
if commit="$(git rev-parse HEAD 2>/dev/null)"; then
    export E2EBENCH_COMMIT="$commit"
else
    export E2EBENCH_COMMIT="tree-sha256:$(find Cargo.toml Cargo.lock src crates e2ebench \
        -type f \( -name '*.rs' -o -name '*.toml' -o -name '*.lock' -o -name '*.sh' \) \
        -not -path '*/target/*' | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)"
fi
exec "$CARGO_TARGET_DIR/release/e2ebench" --segsim "$CARGO_TARGET_DIR/release/segsim" "$@"
