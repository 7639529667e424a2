#!/usr/bin/env bash
# Builds mixpd and the benchmark from this checkout, then runs the
# benchmark with every argument passed through. Run it from the
# repository root:
#
#   bash benchmark/run.sh --workload kernel-study --seed 42 --seconds 20 --trace 0
#   bash benchmark/run.sh -seed 42 -out results.json     # every workload
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, the
# binaries, and the temporary directories of the run (TMPDIR).
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/bin" "$build/tmp" "$build/config"

export GOCACHE=$build/gocache
export GOMODCACHE=$build/gomodcache
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local
export GOFLAGS=
# The environment record's commit comes from git; never from a repository
# above the checkout.
export GIT_CEILING_DIRECTORIES=$(dirname "$root")

(cd "$root" && go build -o "$build/bin/mixpd" ./cmd/mixpd)
(cd "$root/benchmark" && go build -o "$build/bin/benchmark" .)

cd "$root"
exec "$build/bin/benchmark" -mixpd "$build/bin/mixpd" "$@"
