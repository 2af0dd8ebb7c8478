# treeaa — Round-Optimal Approximate Agreement on Trees
#
# Common developer entry points. Everything is stdlib-only Go >= 1.22.

GO ?= go

.PHONY: all build test loc surface race race-sim race-cpu bench-module node-smoke overlay-smoke serve-smoke rolling-restart chaos-soak async-soak cover bench bench-compare bench-serve-smoke bench-kernel-smoke bench-async-smoke bench-mesh-smoke fuzz fuzz-short prop graph-prop check examples experiments clean

all: build test race-sim node-smoke overlay-smoke serve-smoke chaos-soak rolling-restart

build:
	$(GO) build ./...
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l . is not empty:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# The headline number of every simplicity PR: non-test Go lines outside
# bench/, then the same count per package directory.
LOC_FILES = find . -name '*.go' -not -name '*_test.go' -not -path './bench/*'
loc:
	@printf '%7d total\n' "$$($(LOC_FILES) | xargs cat | wc -l)"
	@$(LOC_FILES) -exec dirname {} \; | sort -u | while read d; do \
		printf '%7d %s\n' "$$(find $$d -maxdepth 1 -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)" "$$d"; done

# The other numbers simplicity PRs quote: flags per binary (lines of -h
# output naming a flag), exported identifiers per package (go doc -short:
# consts, vars, funcs, types — not methods), and the field counts of the
# three option structs.
surface:
	@for d in cmd/*/; do \
		printf '%7d flags  %s\n' "$$($(GO) run ./$$d -h 2>&1 | grep -c '^  -')" "$$d"; done
	@$(GO) list ./... | grep -v /cmd/ | grep -v /examples/ | while read p; do \
		printf '%7d exported  %s\n' "$$($(GO) doc -short $$p 2>/dev/null | grep -c .)" "$$p"; done
	@for t in session.Options transport.Options overlay.Options; do \
		printf '%7d fields  %s\n' "$$($(GO) doc ./internal/$${t%%.*} $${t#*.} | grep -cE '^	[A-Z][A-Za-z]* ')" "$$t"; done

race:
	$(GO) test -race ./...

# The sim engine's sequential/concurrent equivalence (and both drivers'
# identity with the expand-everything oracle in internal/sim/oracle_test.go,
# which is what reads one shared broadcast lane from n goroutines), the TCP
# transport's sim-equivalence, and the serving layer's per-session oracle
# identity must hold under the race detector; -short skips the 500-session load test,
# which serve-smoke covers from the outside.
race-sim:
	$(GO) test -race -short ./internal/sim/... ./internal/transport/... ./internal/session/...

# Scheduler-width sweep of the async and serving suites. Every PR before the
# 2-core host was verified at GOMAXPROCS=1 only, which is how the pre-open
# buffer wedge in the async session path shipped. The recovery suites (kill,
# graceful restart, mid-flight, the journal crash-point enumeration, the
# mesh's crash-restart and its mirror ordering) sweep the same widths under
# the race detector, and so do the three mechanisms of the serving data path
# — who drains a shard (and the timekeeper that does when nobody else will),
# the write that never blocks (with both slow-peer tests), the final
# barrier's elision — with the round frame they carry (the driver's framer,
# its Apply and the cross-fabric identity), the mux's connection set, the
# client request bound and the space cache.
race-cpu:
	$(GO) test -count=1 -cpu 1,2,4 -run 'Async|Serve' ./internal/session ./internal/transport
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'Restart|CrashPoints|Recover|ObserverMirrors' ./internal/session ./internal/chaos ./internal/transport
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'Drainer|Timekeeper|Background|TryWrite|SlowPeer|SessionRound|FinalRound|SpaceCache|MuxTracks|ClientRequestBounded|RoundFrame|Framer|EventApply|FuzzApplyRound' \
		./internal/session ./internal/driver ./internal/wire

# The benchmark is a nested module that root `go test ./...` does not reach;
# vet and test it here so an internal/ API change cannot break it unseen.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Multi-process smoke: spawn real cmd/node processes on loopback ports (an
# honest 3-node path cluster, then a 7-party splitvote deployment with the
# adversary host seat, then a block-graph deployment running TreeAA on the
# block-cut tree) and assert validity + agreement of the outputs.
node-smoke:
	$(GO) run ./cmd/node -cluster 3 -tree path:16
	$(GO) run ./cmd/node -cluster 7 -t 2 -tree path:40 -adversary splitvote
	$(GO) run ./cmd/node -cluster 4 -t 1 -tree graph:cliquechain:3:4 -adversary splitvote

# Tree-overlay smoke: the same multi-process cmd/node deployments routed
# over a communication tree instead of the full mesh (leaves hold one
# connection), then a run with a mid-protocol sub-leader crash that must
# fail over and still agree, then a block-graph fleet (TreeAA on the
# block-cut tree) over the same relay fabric.
overlay-smoke:
	$(GO) run ./cmd/node -cluster 7 -tree path:16 -overlay tree:2
	$(GO) run ./cmd/node -cluster 9 -t 2 -tree spider:3:3 -overlay tree:3 \
		-chaos 'crash:p1@r2'
	$(GO) run ./cmd/node -cluster 4 -t 1 -tree graph:cliquechain:3:4 -overlay tree:2

# Serving-layer smoke: a 3-daemon loopback deployment hosting 100 concurrent
# sessions multiplexed over the shared links; exits non-zero if any session
# fails to decide or any Result diverges from the sequential sim.Run oracle.
# The second run turns on the journal and the observability endpoint and
# asserts /healthz and /metrics from the outside with curl while the
# cluster lingers — among the families the two that say who did the work:
# writes and engine turns, inline against deferred.
serve-smoke:
	$(GO) run ./cmd/serve -cluster 3 -sessions 100 -tree spider:3:3
	@set -e; \
	$(GO) run ./cmd/serve -cluster 3 -sessions 100 -tree spider:3:3 \
		-journal-dir "$$(mktemp -d)" -metrics 127.0.0.1:9309 -linger 8s & pid=$$!; \
	ok=0; for i in $$(seq 1 60); do \
		if curl -sf http://127.0.0.1:9309/healthz 2>/dev/null | grep -q ok; then ok=1; break; fi; \
		sleep 0.25; done; \
	if [ $$ok -ne 1 ]; then echo "serve-smoke: /healthz never became ready" >&2; kill $$pid 2>/dev/null; exit 1; fi; \
	for fam in treeaa_sessions_decided_total treeaa_journal_appends_total \
		treeaa_mux_writes_total treeaa_engine_turns_total; do \
		if ! curl -sf http://127.0.0.1:9309/metrics | grep -q "^$$fam"; then \
			echo "serve-smoke: /metrics missing $$fam" >&2; kill $$pid 2>/dev/null; exit 1; fi; done; \
	wait $$pid; \
	echo "serve-smoke: /healthz and /metrics asserted over HTTP"

# Rolling-restart durability smoke: a journaled 4-daemon loopback cluster
# under continuous closed-loop load, each daemon restarted in turn; fails
# on any oracle mismatch or a restart the mesh fails to absorb. The async
# run has no oracle: every decided session is judged for validity and
# agreement instead.
rolling-restart:
	$(GO) run ./cmd/serve -cluster 4 -rolling -sessions 16 -tree spider:3:3
	$(GO) run ./cmd/serve -cluster 4 -rolling -mode async -sessions 16

# Chaos safety soak (~30s): the race-instrumented chaos/transport suites
# (reconnect-resend, crash-restart byte-identity, golden fault schedules),
# then a real fault sweep — seeds × {latency, stall, drop, crash,
# partition, combined} plans × adversaries over the TCP substrate, every
# cell checked for honest-hull validity, 1-agreement, and byte-identity
# with the sequential sim.Run oracle. Exits non-zero on any violation.
chaos-soak:
	$(GO) test -race -count=1 ./internal/chaos/... ./internal/transport/...
	$(GO) run ./cmd/chaos -seeds 1-2 -trees path:16
	$(GO) run ./cmd/chaos -seeds 1 -trees graph:cliquechain:3:4
	$(GO) run ./cmd/node -cluster 4 -t 1 -tree path:16 -adversary splitvote \
		-chaos 'lat:500µs±500µs,crash:p1@r2'

# Asynchronous-mode soak: every async suite under the race detector — RBC
# threshold boundaries, pipeline invariants, the event-driven transport
# driver, the serving layer's async engines, the checker's async cells, and
# the chaos latency battery whose headline cell (lat:200ms±150ms on one
# party's links) aborts the synchronous round barrier but decides
# asynchronously with validity + 1-agreement — then a multi-process cmd/node
# async fleet under a real latency plan, plus async serving smokes, each on
# a tree and on a block graph, and one with the journal on — and a fleet whose
# dropped connection the seq/ack resume repairs underneath the event loop.
# Exits non-zero on any validity/epsilon-agreement violation.
async-soak:
	$(GO) test -race -count=1 -run Async ./internal/async/... ./internal/chaos/... \
		./internal/session/... ./internal/transport/... ./internal/check/ ./internal/wire/
	$(GO) run ./cmd/node -cluster 4 -tree star:6 -mode async -chaos 'lat:20ms±15ms@p2'
	$(GO) run ./cmd/node -cluster 4 -tree path:16 -mode async -chaos 'drop:p0-p2@r2'
	$(GO) run ./cmd/node -cluster 4 -t 1 -tree graph:cliquechain:3:4 -mode async
	$(GO) run ./cmd/serve -cluster 3 -mode async -sessions 50 -tree spider:3:3
	$(GO) run ./cmd/serve -cluster 3 -mode async -sessions 50 -tree graph:cliquechain:3:4
	$(GO) run ./cmd/serve -cluster 3 -mode async -sessions 50 -tree spider:3:3 -journal-dir "$$(mktemp -d)"

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -20

# Every number this repository quotes comes from bench/ (a nested module
# built and run by bench/run.sh; workloads, metrics and bounds in
# bench/README.md). `bench` is the full run: every workload, untraced and
# traced, written to bench/out/result.json.
bench:
	bash bench/run.sh

# Perf regression gate: three fresh untraced passes per workload judged
# against the committed bench/baseline.json by each end-to-end metric's
# bound; a `regressed` verdict exits non-zero.
# (Machine-sensitive — run on hardware comparable to the baseline's env.)
bench-compare:
	bash bench/run.sh -repeat 3 -o .bench_build/compare.json
	bash bench/run.sh -compare bench/baseline.json .bench_build/compare.json

# One short serve-closed pass as a smoke: the serving layer under real
# closed-loop load, every session oracle-checked (correct=true or exit 1).
bench-serve-smoke:
	bash bench/run.sh --workload serve-closed --seed 1 --seconds 2 --trace 0

# One short kernel-batch pass as a smoke: the four in-process tree/graph
# cells on spaces held across operations (the compiled tree tables' home
# workload), every output checked for hull validity and agreement
# (correct=true or exit 1).
bench-kernel-smoke:
	bash bench/run.sh --workload kernel-batch --seed 1 --seconds 2 --trace 0

# One short async-sim pass as a smoke: async.Run of n=16 pipelines on path:64
# under the seeded random scheduler, every output checked for hull validity
# and 1-agreement (correct=true or exit 1).
bench-async-smoke:
	bash bench/run.sh --workload async-sim --seed 1 --seconds 2 --trace 0

# One short mesh-fleet pass as a smoke: transport.LocalCluster runs of n=16 on
# path:1024 back to back, every Result compared with the sim.Run oracle
# (correct=true or exit 1) — the one outside driver that does so under load.
bench-mesh-smoke:
	bash bench/run.sh --workload mesh-fleet --seed 1 --seconds 2 --trace 0

# Short fuzz pass over every fuzz target (tree parsing, Prüfer codec,
# Euler-list invariants, hull/safe-area cross-checks, wire decoding, the
# gradecast tally against its merge oracle).
fuzz:
	$(GO) test -run FuzzDecode -fuzz FuzzDecode -fuzztime 30s ./internal/wire/
	$(GO) test -run FuzzParse -fuzz FuzzParse -fuzztime 30s ./internal/tree/
	$(GO) test -run FuzzPruefer -fuzz FuzzPruefer -fuzztime 30s ./internal/tree/
	$(GO) test -run FuzzEulerList -fuzz FuzzEulerList -fuzztime 30s ./internal/tree/
	$(GO) test -run FuzzConvexHullSafeArea -fuzz FuzzConvexHullSafeArea -fuzztime 30s ./internal/tree/
	$(GO) test -run FuzzTally -fuzz FuzzTally -fuzztime 30s ./internal/gradecast/

# Quick fuzz pass: the same targets as `fuzz` at 10s each, for use as a
# pre-commit gate. FuzzDecode starts from the committed corpus under
# testdata/wire/corpus/ so even the short budget begins at deep decoder
# states.
fuzz-short:
	$(GO) test -run FuzzDecode -fuzz FuzzDecode -fuzztime 10s ./internal/wire/
	$(GO) test -run FuzzParse -fuzz FuzzParse -fuzztime 10s ./internal/tree/
	$(GO) test -run FuzzPruefer -fuzz FuzzPruefer -fuzztime 10s ./internal/tree/
	$(GO) test -run FuzzEulerList -fuzz FuzzEulerList -fuzztime 10s ./internal/tree/
	$(GO) test -run FuzzConvexHullSafeArea -fuzz FuzzConvexHullSafeArea -fuzztime 10s ./internal/tree/
	$(GO) test -run FuzzTally -fuzz FuzzTally -fuzztime 10s ./internal/gradecast/

# Property-based protocol checking (deterministic): a bounded random
# exploration of (tree, inputs, adversary) cells with per-round invariant
# evaluation, plus the fixed differential matrix under the race detector.
# Async-compatible cells additionally run through the event-driven runtime
# under every adversarial scheduler (-async-every). Any violation prints a
# shrunk one-line repro spec and fails the target. Every generated cell with
# t <= 1 is also held to the one-fault collapse (all honest decisions equal);
# the second line runs that lemma's exactness tests, the open Finding F-B
# and the schedule pinned by t under the race detector.
prop:
	$(GO) test -race -count=1 -run 'Differential|Async' ./internal/check/
	$(GO) test -race -count=1 -run 'OneFault|FindingFB|ScheduleByT' ./internal/realaa ./internal/adversary ./internal/core
	$(GO) run ./cmd/check -budget 100 -seeds 1-3 -async-every 4

# Block-graph property gate: the graph machine/decomposition suites under the
# race detector (including the driver-equivalence and TCP differentials),
# then 525 generated graph-only cells — cycles, cliques, clique chains,
# cacti, random block graphs × the full clause pool — each checked for
# geodesic-hull validity, the graph agreement guarantee, per-block hull
# non-expansion and block-cut-tree prefix agreement, every fourth compatible
# cell also under the four adversarial async schedulers. Violations shrink to
# a one-line repro (block pruning, cycle shortening) replayable with -repro.
graph-prop:
	$(GO) test -race -count=1 ./internal/graph/
	$(GO) test -race -count=1 -run Graph ./internal/check/ ./internal/session/
	$(GO) run ./cmd/check -budget 175 -seeds 1-3 -space graph -async-every 4

# Tier-1-adjacent gate: build + vet + tests, the GOMAXPROCS sweep, the
# nested benchmark module, the bench serve, kernel, async and mesh smokes, then
# the property (tree and graph), short fuzz and async-soak passes.
check: build test race-cpu bench-module bench-serve-smoke bench-kernel-smoke bench-async-smoke bench-mesh-smoke prop graph-prop fuzz-short async-soak

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/robotgathering
	$(GO) run ./examples/configtree
	$(GO) run ./examples/oracle
	$(GO) run ./examples/asynctree

# Regenerate the EXPERIMENTS.md measurements.
experiments:
	$(GO) run ./cmd/bench-rounds -sizes 64,256,1024,4096 -async -exact
	$(GO) run ./cmd/lowerbound
	$(GO) run ./cmd/adversary-eval

clean:
	rm -f cover.out test_output.txt bench_output.txt
