#!/usr/bin/env bash
# Builds the harness from source and runs it from the root of the checkout.
# Everything the build writes — the Go build cache, its work directory,
# what the toolchain keeps under the user's configuration directory —
# stays under .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(cd "$here" && GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS= \
	go build -o "$build/iawjbench" .)
cd "$root"
exec "$build/iawjbench" "$@"
