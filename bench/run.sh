#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it; every
# argument is passed through. The binary and the Go build cache live under
# .bench_build/ at the checkout root, so nothing is written elsewhere, and
# the build never reaches for the network or another toolchain.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
# The go command keeps its settings and telemetry counters under the user
# config directory.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

(cd "$root/bench" && go build -o "$out/liteworp-bench" .)
exec "$out/liteworp-bench" "$@"
