#!/usr/bin/env bash
# store_smoke.sh — end-to-end smoke test of the durable artifact store.
#
# Runs two experiments twice against a shared -store directory and asserts
# the contract the store ships with: the second run computes nothing (zero
# sims, zero store misses, 100% answered from disk) and its tables are
# byte-identical to the first run's. A second leg repeats the check across
# worker counts (-j 1 populates, -j 8 reads) — the disk tier must be as
# scheduling-independent as the in-memory one. A last leg checks that
# bfetch-sim claims "no simulation run" only when it ran none: a run that
# reuses a stored checkpoint but simulates a new point must not claim it.
# Run via `make store-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "== build"
go build -o "$workdir/bfetch-bench" ./cmd/bfetch-bench
go build -o "$workdir/bfetch-sim" ./cmd/bfetch-sim

proto=(-exp fig8,ext-depth -workloads mcf,lbm,milc -ff 50000 -warmup 10000 -measure 20000 -q)

echo "== cold run (populates the store)"
"$workdir/bfetch-bench" "${proto[@]}" -store "$workdir/store" \
    -out "$workdir/cold" >/dev/null 2>"$workdir/cold.err"
grep -q 'store:.*misses' "$workdir/cold.err" || {
    echo "cold run never reported store traffic:" >&2
    cat "$workdir/cold.err" >&2
    exit 1
}

echo "== warm run (must compute nothing)"
"$workdir/bfetch-bench" "${proto[@]}" -store "$workdir/store" \
    -out "$workdir/warm" >/dev/null 2>"$workdir/warm.err"
for exp in fig8 ext-depth; do
    grep -q "^$exp finished in .* (0 sims run" "$workdir/warm.err" || {
        echo "warm run simulated something in $exp:" >&2
        cat "$workdir/warm.err" >&2
        exit 1
    }
done
grep -Eq 'store: [1-9][0-9]* hits, 0 misses' "$workdir/warm.err" || {
    echo "warm run was not 100% store hits:" >&2
    cat "$workdir/warm.err" >&2
    exit 1
}

echo "== cold vs warm tables byte-identical"
diff -r "$workdir/cold" "$workdir/warm"

echo "== worker-count invariance (-j 1 populates, -j 8 reads)"
"$workdir/bfetch-bench" "${proto[@]}" -store "$workdir/jstore" -j 1 \
    -out "$workdir/j1" >/dev/null 2>&1
"$workdir/bfetch-bench" "${proto[@]}" -store "$workdir/jstore" -j 8 \
    -out "$workdir/j8" >/dev/null 2>"$workdir/j8.err"
grep -q '^fig8 finished in .* (0 sims run' "$workdir/j8.err" || {
    echo "-j 8 over the -j 1 store recomputed:" >&2
    cat "$workdir/j8.err" >&2
    exit 1
}
diff -r "$workdir/j1" "$workdir/j8"

echo "== bfetch-sim: a checkpoint hit is not a stored result"
sim=(-workloads mcf -ff 20000 -warmup 2000 -measure 5000 -store "$workdir/simstore")
"$workdir/bfetch-sim" "${sim[@]}" -pf none >/dev/null 2>&1
"$workdir/bfetch-sim" "${sim[@]}" -pf bfetch >/dev/null 2>"$workdir/sim2.err"
if grep -q 'no simulation run' "$workdir/sim2.err"; then
    echo "bfetch-sim claimed a store answer for a point it simulated:" >&2
    cat "$workdir/sim2.err" >&2
    exit 1
fi
"$workdir/bfetch-sim" "${sim[@]}" -pf bfetch >/dev/null 2>"$workdir/sim3.err"
grep -q 'no simulation run' "$workdir/sim3.err" || {
    echo "bfetch-sim repeat was not answered from the store:" >&2
    cat "$workdir/sim3.err" >&2
    exit 1
}

echo "store-smoke: OK"
