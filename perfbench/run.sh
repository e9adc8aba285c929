#!/usr/bin/env bash
# Builds the benchmark and fpsa-serve from source, then runs the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-http --seed 1 --seconds 10 --trace 0
#
# Everything it writes stays under .perfbench/ in the repository root,
# including the Go build cache.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/fpsa-serve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/fpsa-serve and perfbench/)" >&2
	exit 2
fi

root=$PWD
work=$root/.perfbench
mkdir -p "$work/bin"
export GOCACHE=$work/gocache GOMODCACHE=$work/gomodcache XDG_CONFIG_HOME=$work/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

commit=$(git rev-parse HEAD 2>/dev/null || echo "unknown (not a git checkout)")
go -C perfbench build -buildvcs=false -o "$work/bin/perfbench" .
go build -buildvcs=false -o "$work/bin/fpsa-serve" ./cmd/fpsa-serve
exec "$work/bin/perfbench" -serve-bin "$work/bin/fpsa-serve" -workdir "$work" -commit "$commit" "$@"
