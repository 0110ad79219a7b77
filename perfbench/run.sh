#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is
# passed through (see main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload switch_64b --seed 1 --seconds 35 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary
# files) stays under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="${root}/.bench_build"
mkdir -p "${out}/tmp"
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/tmp" GOMODCACHE="${out}/modcache"
export XDG_CONFIG_HOME="${out}/config" GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" "$@"
