#!/bin/sh
# Pre-PR gate: build, vet, tests, race detector on the concurrency
#-sensitive packages, the project lint rules, the golden-digest and
# determinism gates, the benchmark-record smokes and the examples. Run
# from the repo root before sending a PR; CI runs the same sequence.
set -eu

echo '== gofmt -l'
# Every tracked Go file must already be gofmt-clean.
test -z "$(gofmt -l $(git ls-files '*.go'))"

echo '== go build ./...'
go build ./...

echo '== go vet ./...'
go vet ./...

echo '== go test ./...'
go test ./...

echo '== go test -race ./internal/sim/ ./internal/trace/ ./internal/runner/ ./internal/sched/ ./internal/fault/ ./internal/cluster/'
go test -race ./internal/sim/ ./internal/trace/ ./internal/runner/ ./internal/sched/ ./internal/fault/ ./internal/cluster/

echo '== rvcap-lint ./...'
go run ./cmd/rvcap-lint ./...

echo '== cycle equivalence: golden artifact digests'
# Every regenerated table, sweep, VCD trace and image must hash to the
# digests committed in testdata/golden_artifacts.txt, and the traced
# scenario must fire the committed number of kernel events; a single
# displaced event anywhere shows up here.
go test -run TestGoldenArtifacts -count=1 .

echo '== rvcap-bench parallel determinism + -json smoke'
# The parallel experiment engine must be invisible in the results: the
# fig3 sweep rows, AXI_HWICAP series included (and the BENCH_*.json
# files built from them), have to be byte-identical for every worker
# count.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/rvcap-bench" ./cmd/rvcap-bench
"$tmp/rvcap-bench" -experiment fig3 -parallel 1 -json -outdir "$tmp/p1" > /dev/null
"$tmp/rvcap-bench" -experiment fig3 -parallel 4 -json -outdir "$tmp/p4" > /dev/null
cmp "$tmp/p1/BENCH_fig3.json" "$tmp/p4/BENCH_fig3.json"
"$tmp/rvcap-bench" -experiment fig4 -json -outdir "$tmp/smoke" > /dev/null
test -s "$tmp/smoke/BENCH_fig4.json"

echo '== rvcap-bench sched determinism'
# Same contract for the scheduling sweep: every scenario owns its
# kernel, so BENCH_sched.json must not depend on the worker count.
"$tmp/rvcap-bench" -experiment sched -parallel 1 -json -outdir "$tmp/s1" > /dev/null
"$tmp/rvcap-bench" -experiment sched -parallel 4 -json -outdir "$tmp/s4" > /dev/null
cmp "$tmp/s1/BENCH_sched.json" "$tmp/s4/BENCH_sched.json"

echo '== rvcap-bench faults determinism'
# The fault plan is a pure function of (seed, site, sequence number),
# so even the degraded-mode sweep must be byte-identical for every
# worker count.
"$tmp/rvcap-bench" -experiment faults -parallel 1 -json -outdir "$tmp/f1" > /dev/null
"$tmp/rvcap-bench" -experiment faults -parallel 4 -json -outdir "$tmp/f4" > /dev/null
cmp "$tmp/f1/BENCH_faults.json" "$tmp/f4/BENCH_faults.json"

echo '== rvcap-bench fleet determinism'
# The cluster dispatcher routes before any board runs and every board
# owns its kernel, so the fleet sweep must be byte-identical whether
# each cell's boards run serially or fanned across host workers.
"$tmp/rvcap-bench" -experiment fleet -parallel 1 -json -outdir "$tmp/fl1" > /dev/null
"$tmp/rvcap-bench" -experiment fleet -parallel 4 -json -outdir "$tmp/fl4" > /dev/null
cmp "$tmp/fl1/BENCH_fleet.json" "$tmp/fl4/BENCH_fleet.json"

echo '== rvcap-bench -fleetjson smoke (BENCH_6.json)'
# The fleet weak-scaling benchmark runs every board count serial and
# parallel within one invocation and digests the deterministic per-board
# reports; benchcheck enforces that every rung's digests matched (wall
# times in the file rule out a byte-level compare across invocations).
"$tmp/rvcap-bench" -fleetjson -fleetjobs 40 -outdir "$tmp/b6" > /dev/null
go run ./cmd/benchcheck "$tmp/b6/BENCH_6.json"
# The committed record must carry host_cores and pass the same rules
# (scaling assertions downgrade to annotated skips on core-starved
# recording hosts rather than asserting parallel speedups they cannot
# show).
go run ./cmd/benchcheck BENCH_6.json

echo '== committed kernel records (BENCH_5.json, BENCH_8.json)'
# The first- and second-round kernel records stay committed as history
# and must keep passing their validators: BENCH_5's one run per queue
# with identical event counts, BENCH_8's >= 3x per-core improvement
# over the BENCH_5 baseline it quotes.
go run ./cmd/benchcheck BENCH_5.json
go run ./cmd/benchcheck -baseline BENCH_5.json BENCH_8.json

echo '== rvcap-bench -steadyjson smoke (BENCH_9.json)'
# The steady-state benchmark streams the job ladder through pooled
# board runtimes and proves bounded memory (peak heap flat across a
# 10x job step), replay determinism and the end-to-end allocs/op
# ceiling. The committed record must hold the full gates; the smoke
# run shrinks the ladder (-steadyscale) and runs one benchmark
# iteration, so its one-time setup is amortised over far fewer jobs —
# it uses a relaxed allocs ceiling and a relaxed heap ratio (tiny
# rungs sit on the GC ramp, not at the steady-state asymptote) while
# still catching a broken histogram, a lost digest match or a
# regressed kernel. Its end-to-end rung must reach half of BENCH_8's
# calendar events/sec (>= 2.04M), and its fleet rung runs the 8-board
# fleet serial and parallel with matching digests.
go run ./cmd/benchcheck -baseline BENCH_8.json BENCH_9.json
"$tmp/rvcap-bench" -steadyjson -steadyscale 100 -benchiters 1 -steadybaseline BENCH_8.json -outdir "$tmp/b9" > /dev/null
go run ./cmd/benchcheck -baseline BENCH_8.json -steady-allocs-ceiling 6000 -steady-heap-ratio 2.0 -steady-min-ratio 0.5 "$tmp/b9/BENCH_9.json"

echo '== benchcheck -claims (doc headline numbers vs committed JSON)'
# Every benchclaim-annotated number in the docs must match the committed
# benchmark JSON it cites, so perf prose cannot drift from measurements.
go run ./cmd/benchcheck -claims README.md -claims DESIGN.md

echo '== rvcap-bench amorphous determinism + -fragjson (BENCH_7.json)'
# The placement sweep replays seeded request streams against both
# partitioning models in independent cells, so its rows (and BENCH_7)
# must not depend on the worker count; benchcheck then enforces the
# headline claims (a mix fixed slots reject that amorphous serves with
# zero failures, and defrag passes that lower fragmentation).
"$tmp/rvcap-bench" -experiment amorphous -parallel 1 -json -outdir "$tmp/a1" > /dev/null
"$tmp/rvcap-bench" -experiment amorphous -parallel 4 -json -outdir "$tmp/a4" > /dev/null
cmp "$tmp/a1/BENCH_amorphous.json" "$tmp/a4/BENCH_amorphous.json"
"$tmp/rvcap-bench" -fragjson -outdir "$tmp/b7" > /dev/null
go run ./cmd/benchcheck "$tmp/b7/BENCH_7.json"

echo '== examples smoke'
# The examples are documentation that compiles; keep the canonical ones
# actually running end to end. quickstart writes its PGM artifacts into
# the working directory, so it runs from the scratch dir.
go build -o "$tmp/quickstart" ./examples/quickstart
(cd "$tmp" && ./quickstart > quickstart.out)
grep -q 'sobel' "$tmp/quickstart.out"
go run ./examples/multi-rp > "$tmp/multi-rp.out"
grep -q 'bit-exact' "$tmp/multi-rp.out"
go run ./examples/time-shared > "$tmp/time-shared.out"
grep -q 'policy=affinity' "$tmp/time-shared.out"
go run ./examples/fault-tolerant > "$tmp/fault-tolerant.out"
grep -q 'quarantined' "$tmp/fault-tolerant.out"
grep -q 'faults:' "$tmp/fault-tolerant.out"
go run ./examples/fleet > "$tmp/fleet.out"
grep -q 'policy=bitstream-locality' "$tmp/fleet.out"
grep -q 'cross-board-moves' "$tmp/fleet.out"
go run ./examples/amorphous > "$tmp/amorphous.out"
grep -q 'placement: policy=first-fit' "$tmp/amorphous.out"
grep -q 'defrag: 3 passes' "$tmp/amorphous.out"

echo 'check.sh: all gates passed'
