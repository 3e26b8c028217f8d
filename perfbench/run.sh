#!/usr/bin/env bash
# Builds the benchmark from source in the checkout and runs it; every
# argument is passed on (see main.go). Build output goes to .bench_build,
# and the Go build cache lives there too, so nothing is written outside
# the checkout. The build needs the repository's module one directory up.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"
