#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. Everything the
# build and the run write stays under .bench_build/ (go's build cache
# included), so the benchmark reads and writes only inside its checkout.
# Fails, without printing a result, anywhere but the root of a checkout
# of this repository: the program is built from its source.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOPATH="$PWD/.bench_build/gopath" GOTOOLCHAIN=local
go build -o .bench_build/e2e ./benchmarks/e2e
exec .bench_build/e2e "$@"
