#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given flags.  Everything it writes lands under .bench_build/ (Go build
# and module caches, the binary) or bench/out/ (results, trace, profiles).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOFLAGS=-modcacherw
export GOTOOLCHAIN=local GOWORK=off
# The commit is stamped into the binary when the checkout is a git
# repository git trusts; anywhere else the build goes without it.
go -C bench build -o "$build/ftbench" . 2>/dev/null || go -C bench build -buildvcs=false -o "$build/ftbench" .
exec "$build/ftbench" "$@"
