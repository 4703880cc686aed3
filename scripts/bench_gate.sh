#!/usr/bin/env bash
# bench_gate.sh — fail when the working tree's compiles allocate more, or
# schedule worse, than the compiles of a base commit.
#
#   scripts/bench_gate.sh <base-ref>
#
# It checks <base-ref> out into a git worktree under .bench_build/, whose
# Go build cache is a link to the working tree's, and runs bench/run.sh
# untraced on compile-hard and compile-light, with seed
# 1 and BENCHMARK.json's run_seconds, once in the base and once in the
# working tree. It fails when the working tree's alloc_mb_per_op, ii_sum
# or copies_sum is worse than the base's by more than that metric's bound
# in BENCHMARK.json. On the compile workloads these three move by less
# than 1e-5 of their value from run to run, so one run a side is enough.
# The timing metrics need a set of ten runs a side to compare, and are
# not gated here. Last, one traced compile-light run of the working tree
# must pass the benchmark's own checks, which include
# core.pass_coverage >= 0.9.
#
# Needs git, go and jq. Exits 0 when the gate passes, 2 on a usage error
# and nonzero on any failure.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
	echo "usage: scripts/bench_gate.sh <base-ref>" >&2
	exit 2
fi

head=$PWD
out="$head/.bench_build/gate"
base="$out/base"
spec="$head/BENCHMARK.json"
seconds=$(jq -r .run_seconds "$spec")

mkdir -p "$out"
git worktree remove --force "$base" 2>/dev/null || rm -rf "$base"
git worktree prune
git worktree add --quiet --detach "$base" "$1"
trap 'git -C "$head" worktree remove --force "$base"' EXIT

# bench/run.sh keeps its Go build cache under the directory it runs in,
# so the new base worktree would build the benchmark cold every time.
# Point the base's cache at the working tree's instead: Go's cache is
# content-addressed, so sharing it changes no build output.
mkdir -p "$head/.bench_build/gocache" "$base/.bench_build"
ln -s "$head/.bench_build/gocache" "$base/.bench_build/gocache"

# run SIDE DIR WORKLOAD TRACE runs one workload in DIR. Its standard
# output goes to $out/SIDE-WORKLOAD-tTRACE.out, and its last line, the
# result, to the same name with .json.
run() {
	local name="$out/$1-$3-t$4"
	echo "== $1: $3, trace $4" >&2
	if ! (cd "$2" && bash bench/run.sh --workload "$3" --seed 1 \
		--seconds "$seconds" --trace "$4") >"$name.out"; then
		echo "bench_gate: $1 run of $3 (trace $4) failed" >&2
		tail -n 1 "$name.out" >&2
		return 1
	fi
	tail -n 1 "$name.out" >"$name.json"
}

fail=0
for w in compile-hard compile-light; do
	run base "$base" "$w" 0
	run head "$head" "$w" 0
	for m in alloc_mb_per_op ii_sum copies_sum; do
		line=$(jq -rn --arg m "$m" --arg w "$w" \
			--slurpfile spec "$spec" \
			--slurpfile b "$out/base-$w-t0.json" \
			--slurpfile h "$out/head-$w-t0.json" '
			($spec[0].end_to_end[] | select(.name == $m)) as $e
			| $b[0].metrics[$m].value as $bv
			| $h[0].metrics[$m].value as $hv
			| if ([$bv, $hv, $e.bound] | map(type) | unique) != ["number"]
			  then error("\($w) \($m): a value or its bound is missing") else . end
			| (if $e.better == "lower" then $hv > $bv * (1 + $e.bound)
			   else $hv < $bv * (1 - $e.bound) end) as $worse
			| "\($w) \($m): base \($bv) head \($hv) bound \($e.bound) "
			  + (if $worse then "WORSE" else "ok" end)')
		echo "$line" >&2
		case $line in *WORSE) fail=1 ;; esac
	done
done

run head "$head" compile-light 1 || fail=1

if [ "$fail" -ne 0 ]; then
	echo "bench_gate: FAIL against $1" >&2
	exit 1
fi
echo "bench_gate: ok against $1" >&2
