#!/usr/bin/env bash
# Paired A/B run of the repository benchmark (perfbench) on two revisions.
#
#   scripts/perf_pairs.sh OLD NEW WORKLOAD [N] [SEED]
#   make perf-pairs OLD=<rev> NEW=<rev> WL=<workload> N=10
#
# Each revision is checked out in its own temporary git worktree, where
# perfbench/run.sh builds it. The script then runs `bash perfbench/run.sh`
# N times per side, each run as long as BENCHMARK.json's run_seconds,
# alternating the sides and swapping which goes first in
# every pair, so host drift hits both alike. It prints, for every end-to-end
# metric BENCHMARK.json lists, each side's median and quartiles and how many
# of the N pairs NEW won. It exits nonzero if any run's result_digest differs
# from the first one's: the two revisions simulated different numbers.
# Nothing under perfbench/ is touched.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: $0 OLD NEW WORKLOAD [N] [SEED]" >&2
	exit 2
fi
old=$1 new=$2 wl=$3 n=${4:-10} seed=${5:-1}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/perf_pairs.XXXXXX")
cleanup() {
	for side in old new; do
		git -C "$root" worktree remove --force "$work/$side" 2>/dev/null || true
	done
	git -C "$root" worktree prune
	rm -rf "$work"
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$work/old" "$old"
git -C "$root" worktree add --quiet --detach "$work/new" "$new"

# The run length and the end-to-end metric names and directions, from the
# BENCHMARK.json the script runs beside: "name better" per metric line.
secs=$(awk -F: '/"run_seconds"/ { gsub(/[ ,]/, "", $2); print $2 }' "$root/BENCHMARK.json")
if [ -z "$secs" ]; then
	echo "perf_pairs: no run_seconds in $root/BENCHMARK.json" >&2
	exit 2
fi
metrics=$(awk '/"end_to_end"/ { on = 1 } on && /\]/ { exit }
	on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
	on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }' "$root/BENCHMARK.json")

# run SIDE PAIR: one benchmark run, its digest and metric values saved.
run() {
	local side=$1 i=$2 out
	echo "perf_pairs: pair $i/$n: $side" >&2
	out=$(cd "$work/$side" && bash perfbench/run.sh --workload "$wl" --seed "$seed" --seconds "$secs" --trace 0)
	grep -o '"result_digest":"[0-9a-f]*"' <<<"$out" | cut -d'"' -f4 >>"$work/$side.digest"
	while read -r m _; do
		grep -o "\"$m\":{\"value\":[-0-9.e+]*" <<<"$out" | sed 's/.*://' >>"$work/$side.$m"
	done <<<"$metrics"
}

for ((i = 1; i <= n; i++)); do
	if ((i % 2)); then
		run old "$i"
		run new "$i"
	else
		run new "$i"
		run old "$i"
	fi
done

# quartiles FILE: "q1 median q3" of the file's numbers (linear interpolation).
quartiles() {
	sort -g "$1" | awk '{ v[NR] = $1 }
		function q(p,  h, l) { h = (NR - 1) * p + 1; l = int(h); return v[l] + (h - l) * (v[l + 1] - v[l]) }
		END { v[NR + 1] = v[NR]; printf "%.4g %.4g %.4g", q(0.25), q(0.5), q(0.75) }'
}

echo "workload $wl, seed $seed, $n pairs of $secs s runs; OLD $old, NEW $new"
printf '%-12s %-7s %-30s %-30s %s\n' metric better "OLD median [q1, q3]" "NEW median [q1, q3]" "NEW wins"
while read -r m better; do
	read -r oq1 omed oq3 <<<"$(quartiles "$work/old.$m")"
	read -r nq1 nmed nq3 <<<"$(quartiles "$work/new.$m")"
	wins=$(paste "$work/old.$m" "$work/new.$m" |
		awk -v b="$better" '(b == "higher" && $2 > $1) || (b == "lower" && $2 < $1) { w++ } END { print w + 0 }')
	printf '%-12s %-7s %-30s %-30s %s/%s\n' "$m" "$better" \
		"$omed [$oq1, $oq3]" "$nmed [$nq1, $nq3]" "$wins" "$n"
done <<<"$metrics"

digests=$(sort -u "$work/old.digest" "$work/new.digest")
if [ -z "$digests" ] || [ "$(wc -l <<<"$digests")" -ne 1 ]; then
	echo "perf_pairs: result_digest missing or different between runs:" $digests >&2
	exit 1
fi
echo "result_digest $digests on every run"
