#!/usr/bin/env bash
# Builds sigfimbench from source and runs it with the given arguments.
#
#   bash cmd/sigfimbench/run.sh --workload indep-gen --seed 20090629 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays in
# .bench_build at the repository root, so the script needs no network and
# leaves nothing outside the checkout. It fails fast when the repository's
# own go.mod is missing, i.e. when only the benchmark files are present.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
if [[ ! -f "$root/go.mod" ]]; then
  echo "sigfimbench: $root/go.mod not found; run from a full checkout of the sigfim repository" >&2
  exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$here" build -o "$out/sigfimbench" .
exec "$out/sigfimbench" "$@"
