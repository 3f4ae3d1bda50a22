#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs one measurement:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# `--trace 0` runs the end-to-end binary, `--trace 1` the traced one (it
# counts allocations, so it is a separate binary). Build output goes to
# standard error; the last line of standard output is the JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bin=perfbench
args=("$@")
for ((i = 0; i + 1 < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == --trace && "${args[i + 1]}" == 1 ]]; then
        bin=perfbench_traced
    fi
done

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins 1>&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/$bin" "$@"
