#!/usr/bin/env bash
# Runs mecache's end-to-end benchmark. From the repository root:
#
#   bash e2ebench/run.sh --workload admit-churn --seed 1 --seconds 30 --trace 0
#
# Workloads: admit-churn, epoch-churn, or all. It builds
# cmd/mecd and the benchmark driver from the tree it sits in, then runs the
# driver, which prints a readable report and, as its last line, the JSON
# result. Binaries, the Go build cache and the daemons' scratch state all
# stay under .bench_build in the repository root.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/mecd ] || [ ! -f e2ebench/go.mod ]; then
	echo "e2ebench: run from the repository root (needs go.mod, cmd/mecd and e2ebench/)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/mecd" ./cmd/mecd
(cd e2ebench && go build -o "$out/e2ebench" .)
commit=
if [ -d .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || true)
fi
exec "$out/e2ebench" -mecd "$out/mecd" -work "$out/work" -root "$root" -commit "$commit" "$@"
