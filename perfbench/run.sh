#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root:
#
#   bash perfbench/run.sh --workload tables --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, proc-backend sockets and
# worker logs, and the span files of traced runs.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$bench_dir/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off CGO_ENABLED=0

(cd "$bench_dir" && go build -o "$out/perfbench" .)

commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

cd "$root"
# A relative TMPDIR keeps the proc backend's Unix socket path short
# whatever the checkout's absolute path is.
TMPDIR=.bench_build/tmp exec "$out/perfbench" --commit "$commit" "$@"
