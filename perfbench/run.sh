#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload core-bound --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build in
# the current directory: the Go build cache, the benchmark binary, the passes'
# stores and the traced run's spans.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
# HOME and XDG_CONFIG_HOME keep the go command's config and telemetry files
# under .bench_build too; GOTOOLCHAIN=local and GOPROXY=off keep it offline.
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The go command starts a detached telemetry process that can outlive it;
# the mode file under XDG_CONFIG_HOME turns telemetry off for every go
# command the benchmark runs (the build and the traced pass's go tool pprof).
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
if [ ! -f go.mod ]; then
	echo "perfbench/run.sh: no simulator source here; run from the repository root" >&2
	exit 1
fi
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
