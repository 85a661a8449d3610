#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# BENCHMARK.json names this script as its command; arguments pass
# through (see README.md). Everything the build writes — binary, Go
# build cache, module cache, temporary files, toolchain telemetry —
# stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$here"
	GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/gopath" \
		GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
		GOWORK=off GOTOOLCHAIN=local \
		go build -o "$build/bench" .
)
cd "$root"
exec "$build/bench" "$@"
