#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it from the checkout root, passing every argument through:
#
#   bash bench/run.sh --workload paper-roundtrip --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -runs 3          # whole suite, repeatability check
#
# The Go build cache, the binary and the run state all stay inside the
# checkout, under .bench_build/. Without the repository's sources next to
# bench/ the build fails and nothing is printed on standard output.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
# The benchmark needs nothing beyond the standard library and the
# repository itself, so the module proxy stays off. The Go tools keep
# per-user settings and telemetry counters in the user config
# directory, which moves into the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/ibbench8" .)
cd "$root"
exec "$out/ibbench8" "$@"
