#!/usr/bin/env bash
# census.sh: a function-level coverage census of every workload.
#
# Builds the CLIs, the examples and perfbench with
# `-cover -coverpkg=activesan/...`, runs the repository's workload set with
# one GOCOVERDIR, and prints each non-test function that no workload reached
# (0.0% in `go tool covdata func`), one per line as file:line, name, 0.0%.
# A function listed here runs only under `go test`, or not at all.
#
#	scripts/census.sh
#
# The workload set:
#   - the CLI lines in .github/workflows/ci.yml;
#   - activesim -run all;
#   - each sansweep -sweep value and each -collective op;
#   - swasm's four modes, mkworkload write and -verify, and sandiff;
#   - the five examples;
#   - perfbench's three workloads, untraced and traced.
#
# Build outputs, workload files and coverage data go to a temporary
# directory (under $TMPDIR) that is removed on exit. Takes about a minute
# on a 2-vCPU VM.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
bin=$work/bin
run=$work/run
export GOCOVERDIR=$work/cov
mkdir -p "$bin" "$run" "$GOCOVERDIR"

cd "$root"
echo "census: building instrumented binaries" >&2
for dir in cmd/* examples/*; do
	go build -cover -coverpkg=activesan/... -o "$bin/$(basename "$dir")" "./$dir"
done
(cd perfbench && go build -cover -coverpkg=activesan/... -o "$bin/perfbench" .)

# step runs one workload command, quietly; a failing workload stops the
# census, since its coverage would be partial.
step() {
	echo "census: $*" >&2
	if ! "$@" > "$run/last.out" 2>&1; then
		cat "$run/last.out" >&2
		echo "census: workload failed: $*" >&2
		exit 1
	fi
}

cd "$run"

# The CLI lines in ci.yml.
cat > crash.json <<'EOF'
{"events": [{"at_ns": 50000, "kind": "handler_crash", "switch": 0}]}
EOF
cat > plan.json <<'EOF'
{"seed": 7, "links": [{"drop": 0.005}], "disks": [{"fail": 0.1}]}
EOF
step "$bin/activesim" -run fig3 -scale 256 -metrics-out out/metrics.json -trace-out out/trace.json
step "$bin/activesim" -run all -scale 256 -parallel 4 -trace-out out/all-p4.json
step "$bin/activesim" -run all -scale 256 -parallel 1 -trace-out out/all-p1.json
step "$bin/activesim" -run fig3 -scale 256 -telemetry -faults crash.json \
	-flight-recorder out/flight.txt -metrics-out out/telemetry.json
step "$bin/activesim" -run fig3 -scale 256 -faults plan.json -metrics-out out/faulted.json
step "$bin/activesim" -run scalesweep -scale 64 -partitions 1 -json out/p1.json
step "$bin/activesim" -run scalesweep -scale 64 -partitions 4 -json out/p4.json
step "$bin/sansweep" -sweep collective -nodes 4,16
step "$bin/sansweep" -sweep collective -collective keyagg -agg-budget 8 -nodes 16
step "$bin/sansweep" -sweep collective -collective barrier -nodes 8 -partitions 2
for kind in one dist all; do
	step "$bin/sansweep" -sweep reduce -kind "$kind" -nodes 3,12 -parallel 2
done
step "$bin/sansweep" -sweep reduce -rounds 4 -nodes 8

# The whole registry at the default scale.
step "$bin/activesim" -run all

# Every sweep, and every collective op.
for sweep in reduce md5 sort collective ablation twolevel; do
	step "$bin/sansweep" -sweep "$sweep"
done
for op in allreduce barrier scatter gather keyagg; do
	step "$bin/sansweep" -sweep collective -collective "$op"
done

# The tools: workload files, the switch-assembly toolchain, result diffs.
step "$bin/mkworkload" -dir wl
step "$bin/mkworkload" -dir wl -verify
cat > sum.s <<'EOF'
; add up the stream's bytes
loop:
	bge  r1, r2, done
	lb   r4, 0(r1)
	add  r3, r3, r4
	addi r1, r1, 1
	dealloc r1
	j    loop
done:
	emit r3
	stop
EOF
cat > select.hdl <<'EOF'
handler select {
	param threshold
	var count
	on record 16 {
		if b[0] < threshold {
			count = count + 1
		}
	}
	end {
		emit count
	}
}
EOF
step "$bin/swasm" -asm sum.s -o sum.img
step "$bin/swasm" -dis sum.img
step "$bin/swasm" -run sum.s -data wl/md5-input.bin
step "$bin/swasm" -hdl select.hdl
step "$bin/swasm" -hdl select.hdl -o select.img
step "$bin/swasm" -hdl select.hdl -data wl/md5-input.bin -param threshold=64
step "$bin/sandiff" out/p1.json out/p4.json

# The examples.
for dir in "$root"/examples/*; do
	step "$bin/$(basename "$dir")"
done

# perfbench reads the goldens relative to the repository root.
cd "$root"
for workload in paper fabric permute; do
	step "$bin/perfbench" -workload "$workload"
	step "$bin/perfbench" -workload "$workload" -trace -spans "$run/spans-$workload.json"
done

go tool covdata func -i="$GOCOVERDIR" | awk '$NF == "0.0%"' | sort
