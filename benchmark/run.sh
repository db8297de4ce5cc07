#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# (a no-op when nothing changed) and runs it there with the given arguments.
# Everything the Go toolchain writes stays inside .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$root/benchmark"
	HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
		GOPROXY=off GOTOOLCHAIN=local \
		go build -o "$build/benchmark" .
)
cd "$root"
exec "$build/benchmark" "$@"
