#!/usr/bin/env bash
# identity.sh: check that the working tree's CLI outputs are byte-identical
# to those of another revision.
#
#	scripts/identity.sh REV
#
# Extracts REV with `git archive`, builds activesim, sansweep and mkworkload
# from it and from the working tree, runs the same commands with both
# builds, and compares each output with cmp. It prints one line per output
# and exits 1, naming every output that differs. A change meant to keep
# behaviour (a refactor, a deletion, a speedup) should leave every output
# identical; a change of behaviour differs by design, so this is a check to
# run by hand, not a CI gate.
#
# The outputs, each the stdout of its command or a file it writes:
#   - activesim -run all -scale 64 -json, at -parallel 1 and -parallel 2;
#   - activesim -run fig13 -scale 64, its -trace-out and -metrics-out files;
#   - sansweep -sweep ablation, sort, md5 and twolevel;
#   - sansweep -sweep md5 with -metrics-out, and its file;
#   - sansweep -sweep collective -collective keyagg -agg-budget 8 -nodes 16
#     with -metrics-out, and its file;
#   - sansweep -sweep reduce -kind dist -nodes 2,4,8,16, and
#     -sweep reduce -rounds 4 -nodes 8;
#   - activesim -run fig3 -scale 256 under the CI crash plan, with
#     -telemetry, -flight-recorder and -metrics-out;
#   - mkworkload -dir, and every file it writes (the grep corpus, the MPEG
#     stream, the MD5 input and the tar inputs); then mkworkload -verify on
#     that directory.
#
# Both sides run in directories of their own under one temporary directory
# (under $TMPDIR), with the same relative output names, so paths printed on
# stdout match too. The directory is removed on exit. Takes about 15 s
# on a 2-vCPU VM.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: scripts/identity.sh REV" >&2
	exit 2
fi
rev=$1
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir -p "$work/src" "$work/base" "$work/tree"
git -C "$root" archive "$rev" | tar -x -C "$work/src"
for side in base tree; do
	src=$work/src
	[ "$side" = tree ] && src=$root
	echo "identity: building $side" >&2
	(cd "$src" && go build -o "$work/$side/activesim" ./cmd/activesim &&
		go build -o "$work/$side/sansweep" ./cmd/sansweep &&
		go build -o "$work/$side/mkworkload" ./cmd/mkworkload)
done

cat > "$work/crash.json" <<'EOF'
{"events": [{"at_ns": 50000, "kind": "handler_crash", "switch": 0}]}
EOF

# The outputs to compare, relative to each side's directory; the files
# mkworkload writes join them once the base side has run.
outputs=(
	all-p1.out all-p1.json all-p2.out all-p2.json
	fig13.out fig13-trace.json fig13-metrics.json
	ablation.out sort.out md5.out twolevel.out
	md5-metrics.out md5-metrics.json keyagg.out keyagg-metrics.json
	reduce-dist.out reduce-rounds.out
	crash.out crash-flight.txt crash-metrics.json
	workloads.out verify.out
)

# run SIDE runs every command with SIDE's build, in SIDE's directory.
run() {
	local bin=$work/$1
	cd "$bin"
	echo "identity: running $1" >&2
	./activesim -run all -scale 64 -parallel 1 -json all-p1.json > all-p1.out
	./activesim -run all -scale 64 -parallel 2 -json all-p2.json > all-p2.out
	./activesim -run fig13 -scale 64 -trace-out fig13-trace.json \
		-metrics-out fig13-metrics.json > fig13.out
	for sweep in ablation sort md5 twolevel; do
		./sansweep -sweep "$sweep" > "$sweep.out"
	done
	./sansweep -sweep md5 -metrics-out md5-metrics.json > md5-metrics.out
	./sansweep -sweep collective -collective keyagg -agg-budget 8 -nodes 16 \
		-metrics-out keyagg-metrics.json > keyagg.out
	./sansweep -sweep reduce -kind dist -nodes 2,4,8,16 > reduce-dist.out
	./sansweep -sweep reduce -rounds 4 -nodes 8 > reduce-rounds.out
	./activesim -run fig3 -scale 256 -telemetry -faults ../crash.json \
		-flight-recorder crash-flight.txt -metrics-out crash-metrics.json > crash.out 2>&1
	./mkworkload -dir workloads > workloads.out
	./mkworkload -dir workloads -verify > verify.out
}
run base
run tree
for f in "$work/base/workloads"/*; do
	outputs+=("workloads/${f##*/}")
done

differ=()
for out in "${outputs[@]}"; do
	if cmp -s "$work/base/$out" "$work/tree/$out"; then
		echo "identical  $out"
	else
		echo "DIFFERS    $out"
		differ+=("$out")
	fi
done
if [ ${#differ[@]} -gt 0 ]; then
	echo "identity: outputs differ from $rev: ${differ[*]}" >&2
	exit 1
fi
echo "identity: every output identical to $rev" >&2
