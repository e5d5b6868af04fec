#!/usr/bin/env bash
# census.sh: a function-level coverage census of every workload, with a
# ratchet.
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
#   - activesim -run all, and every other activesim flag but -tracelimit;
#   - RELIABILITY.md's example fault plan, verbatim, and a crash at time 0,
#     on fig3;
#   - each sansweep -sweep value and each -collective op, and -metrics-out;
#   - swasm's four modes, -reg and a program using private memory,
#     mkworkload write and -verify, and sandiff;
#   - three runs that must exit 1: sandiff's breached -threshold, an
#     unknown experiment id, and a handler with an undefined name;
#   - the five examples;
#   - perfbench's three workloads, untraced and traced.
#
# scripts/census.allow lists the unreached functions the repository keeps,
# one per line: file, function (as covdata names it, without the line),
# category and reason. The census fails, naming the function, when an
# unreached function is not listed, or when a listed one is reached or no
# longer exists; so the list only shrinks. The categories:
#   failure    reached only when a run fails (stall and panic reporters);
#   marker     an interface method nothing calls;
#   reference  an oracle or reference implementation tests compare against;
#   seam       a test seam another package's tests use (named in the reason);
#   api        API that README or an example names;
#   input      reached only by inputs no workload has;
#   defect     reached only by an input that fails today.
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
# census, since its coverage would be partial. fails runs one that must exit
# 1, such as sandiff on a breached threshold; any other status stops it.
step() {
	echo "census: $*" >&2
	if ! "$@" > "$run/last.out" 2>&1; then
		cat "$run/last.out" >&2
		echo "census: workload failed: $*" >&2
		exit 1
	fi
}
fails() {
	echo "census: (must exit 1) $*" >&2
	local status=0
	"$@" > "$run/last.out" 2>&1 || status=$?
	if [ "$status" -ne 1 ]; then
		cat "$run/last.out" >&2
		echo "census: workload exited $status, want 1: $*" >&2
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

# The activesim flags ci.yml does not use. The first run writes every
# report form; the fault-free and the faulted fig3 results feed sandiff's
# breached threshold below.
step "$bin/activesim" -list
step "$bin/activesim" -run all -scale 64 -chart -svg out/svg -md out/report.md
step "$bin/activesim" -run fig3 -scale 256 -trace out/trace.log -json out/fig3.json
step "$bin/activesim" -run fig3 -scale 256 -cpuprofile out/cpu.pb.gz -memprofile out/mem.pb.gz
step "$bin/activesim" -run fig15 -scale 64 -topology fattree
step "$bin/activesim" -run fig3 -scale 256 -strict-routes
step "$bin/activesim" -run fig3 -scale 256 -faults plan.json -fault-seed 3 -json out/fig3-faulted.json
fails "$bin/activesim" -run nosuch

# Telemetry spans on the Chrome trace, and a handler crash before the first
# invocation, which the crashed switch answers with a crash notice.
step "$bin/activesim" -run fig3 -scale 256 -telemetry -trace-out out/spans.json
cat > crash0.json <<'EOF'
{"events": [{"at_ns": 0, "kind": "handler_crash", "switch": 0}]}
EOF
step "$bin/activesim" -run fig3 -scale 256 -faults crash0.json

# RELIABILITY.md's example plan, as the document prints it.
awk '/^```json$/ { on = 1; next } on && /^```$/ { exit } on' "$root/RELIABILITY.md" > example-plan.json
step "$bin/activesim" -run fig3 -scale 256 -faults example-plan.json

# Every sweep, and every collective op.
for sweep in reduce md5 sort collective ablation twolevel; do
	step "$bin/sansweep" -sweep "$sweep"
done
for op in allreduce barrier scatter gather keyagg; do
	step "$bin/sansweep" -sweep collective -collective "$op"
done
step "$bin/sansweep" -sweep md5 -metrics-out out/sweep-metrics.json

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
cat > hist.s <<'EOF'
; count the stream's bytes into four buckets, by their top two bits, in
; private memory, and keep the last byte there too
loop:
	bge  r1, r2, done
	lb   r4, 0(r1)
	sb   r4, 16(r0)
	srli r4, r4, 6
	slli r4, r4, 2
	lw   r7, 0(r4)
	addi r7, r7, 1
	sw   r7, 0(r4)
	addi r1, r1, 1
	dealloc r1
	j    loop
done:
	lw   r7, 0(r0)
	emit r7
	lb   r7, 16(r0)
	emit r7
	stop
EOF
cat > bad.hdl <<'EOF'
handler bad {
	end {
		emit missing
	}
}
EOF
step "$bin/swasm" -asm sum.s -o sum.img
step "$bin/swasm" -dis sum.img
step "$bin/swasm" -run sum.s -data wl/md5-input.bin
step "$bin/swasm" -run sum.s -data wl/md5-input.bin -reg r3=7
step "$bin/swasm" -run hist.s -data wl/md5-input.bin
step "$bin/swasm" -hdl select.hdl
step "$bin/swasm" -hdl select.hdl -o select.img
step "$bin/swasm" -hdl select.hdl -data wl/md5-input.bin -param threshold=64
step "$bin/activesim" -run hdlsweep -scale 64 -handler-src select.hdl
fails "$bin/swasm" -hdl bad.hdl
step "$bin/sandiff" out/p1.json out/p4.json
fails "$bin/sandiff" -threshold 5 out/fig3.json out/fig3-faulted.json

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

# The ratchet: compare the unreached functions with the allow list, keyed
# by file and function name without the line number.
go tool covdata func -i="$GOCOVERDIR" > "$work/func.txt"
awk '$NF == "0.0%"' "$work/func.txt" | sort
awk -v allow="$root/scripts/census.allow" -v module=activesan/ '
	BEGIN {
		split("failure marker reference seam api input defect", cats)
		for (i in cats) known[cats[i]] = 1
		while ((getline line < allow) > 0) {
			n++
			if (line ~ /^[ \t]*(#|$)/) continue
			split(line, f, /[ \t]+/)
			key = f[1] " " f[2]
			if (f[4] == "" || !(f[3] in known)) {
				printf "census: %s:%d: want file, function, category and reason: %s\n", allow, n, line
				bad = 1
			} else if (key in listed) {
				printf "census: %s:%d: %s is listed twice\n", allow, n, key
				bad = 1
			}
			listed[key] = 1
		}
	}
	$1 == "total:" { next }
	{
		file = $1
		sub(/:[0-9]+:$/, "", file)
		sub("^" module, "", file)
		key = file " " $2
		seen[key] = 1
		if ($NF == "0.0%" && !(key in listed)) {
			printf "census: unreached and not in census.allow: %s\n", key
			bad = 1
		} else if ($NF != "0.0%" && (key in listed)) {
			printf "census: in census.allow but reached (%s): %s\n", $NF, key
			bad = 1
		}
	}
	END {
		for (key in listed)
			if (!(key in seen)) {
				printf "census: in census.allow but no longer exists: %s\n", key
				bad = 1
			}
		exit bad
	}
' "$work/func.txt" | sort >&2
