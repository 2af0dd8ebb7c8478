# treeaa — Round-Optimal Approximate Agreement on Trees
#
# Common developer entry points. Everything is stdlib-only Go >= 1.22.

GO ?= go

.PHONY: all build test loc surface race race-sim race-cpu bench-module node-smoke serve-smoke rolling-restart chaos-soak async-soak cover bench bench-compare bench-serve-smoke bench-kernel-smoke bench-go-smoke bench-async-smoke bench-mesh-smoke fuzz fuzz-short prop graph-prop check examples experiments clean

all: build test race-sim node-smoke serve-smoke chaos-soak rolling-restart

build:
	$(GO) build ./...
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l . is not empty:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# The headline number of every simplicity PR: non-test Go lines outside
# bench/, then the _test.go lines beside them (code moved into a test is not
# code removed), then the non-test count per package directory.
LOC_FILES = find . -name '*.go' -not -name '*_test.go' -not -path './bench/*'
loc:
	@printf '%7d total\n' "$$($(LOC_FILES) | xargs cat | wc -l)"
	@printf '%7d _test.go total\n' "$$(find . -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
	@$(LOC_FILES) -exec dirname {} \; | sort -u | while read d; do \
		printf '%7d %s\n' "$$(find $$d -maxdepth 1 -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)" "$$d"; done

# The other numbers simplicity PRs quote: flags per binary (lines of -h
# output naming a flag), exported identifiers per package (go doc -short:
# consts, vars, funcs, types — not methods), exported methods per package
# (go doc -all: the func lines with a receiver), the field counts of the
# three option structs and of transport.Seat, and what each binary links of internal/ (go list
# -deps), which shows a package leaving the daemons.
surface:
	@for d in cmd/*/; do \
		printf '%7d flags  %s\n' "$$($(GO) run ./$$d -h 2>&1 | grep -c '^  -')" "$$d"; done
	@$(GO) list ./... | grep -v /cmd/ | grep -v /examples/ | while read p; do \
		printf '%7d exported  %s\n' "$$($(GO) doc -short $$p 2>/dev/null | grep -c .)" "$$p"; \
		printf '%7d methods  %s\n' "$$($(GO) doc -all $$p 2>/dev/null | grep -cE '^func \([^)]*\) [A-Z]')" "$$p"; done
	@for t in session.Options transport.Options transport.Seat overlay.Options; do \
		printf '%7d fields  %s\n' "$$($(GO) doc ./internal/$${t%%.*} $${t#*.} | grep -cE '^	[A-Z][A-Za-z]* ')" "$$t"; done
	@for d in cmd/*/; do \
		deps=$$($(GO) list -deps ./$$d | sed -n 's|^treeaa/internal/||p' | sort); \
		printf '%7d links  %s %s\n' "$$(echo $$deps | wc -w)" "$$d" "$$(echo $$deps)"; done

race:
	$(GO) test -race ./...

# The sim engine's sequential/concurrent equivalence (and both drivers'
# identity with the expand-everything oracle in internal/sim/oracle_test.go,
# which is what reads one shared broadcast lane from n goroutines), the
# gradecast tally and RealAA (honest parties vote with one shared received
# vector, which n goroutines must only read), the adversary strategies and
# crashaa's PartialCrash (they read the engine's reused view, a broadcast
# once), the TCP transport's sim-equivalence, and the serving layer's per-session oracle
# identity must hold under the race detector; -short skips the 500-session load test,
# which serve-smoke covers from the outside.
race-sim:
	$(GO) test -race -short ./internal/sim/... ./internal/transport/... ./internal/session/... ./internal/gradecast/... ./internal/realaa/... ./internal/adversary/... ./internal/crashaa/...

# Scheduler-width sweep of the async and serving suites. Every PR before the
# 2-core host was verified at GOMAXPROCS=1 only, which is how the pre-open
# buffer wedge in the async session path shipped. The recovery suites (kill,
# graceful restart, mid-flight, the journal crash-point enumeration, the
# mesh's mirror ordering) sweep the same widths under
# the race detector, and so do the three mechanisms of the serving data path
# — who drains a shard (and the timekeeper that does when nobody else will),
# the write that never blocks (with both slow-peer tests), the final
# barrier's elision — with the round frame they carry (the driver's framer,
# its Apply and the cross-fabric identity), the shared link's connection set
# on both fabrics, its generation fence, one connection per pair and the
# read-ordered link failure an async seat judges, and the client request
# bound; and TreeAA machines stepped concurrently, which share
# one read-only vote vector per lane.
race-cpu:
	$(GO) test -count=1 -cpu 1,2,4 -run 'Async|Serve' ./internal/session ./internal/transport
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'Restart|CrashPoints|Recover|ObserverMirrors' ./internal/session ./internal/chaos ./internal/transport
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'Drainer|Timekeeper|Background|TryWrite|SlowPeer|SessionRound|FinalRound|MuxTracks|MeshTracks|GenerationFence|OneConnectionPerPair|AsyncWriteFailure|DiscardKeeps|DropAfterDiscard|ClientRequestBounded|RoundFrame|Framer|EventApply|FuzzApplyRound|Omission' \
		./internal/session ./internal/transport ./internal/driver ./internal/wire
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'SequentialConcurrent' ./internal/core

# The benchmark is a nested module that root `go test ./...` does not reach;
# vet and test it here so an internal/ API change cannot break it unseen.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Multi-process smoke: spawn real cmd/node processes on loopback ports (an
# honest 3-node path cluster, then a 7-party splitvote deployment with the
# adversary host seat, the same host sending byte-mutated traffic, then a
# block-graph deployment running TreeAA on the block-cut tree) and assert
# validity + agreement of the outputs.
node-smoke:
	$(GO) run ./cmd/node -cluster 3 -tree path:16
	$(GO) run ./cmd/node -cluster 7 -t 2 -tree path:40 -adversary splitvote
	$(GO) run ./cmd/node -cluster 7 -t 2 -tree path:40 -adversary 'replay(delay=3)'
	$(GO) run ./cmd/node -cluster 7 -t 2 -tree path:40 -adversary 'splitvote+mutate(rate=300)'
	$(GO) run ./cmd/node -cluster 4 -t 1 -tree graph:cliquechain:3:4 -adversary splitvote
	$(GO) run ./cmd/node -cluster 7 -t 2 -tree path:40 -adversary 'splitvote+omit(halves=1)'
	$(GO) run ./cmd/node -cluster 4 -t 1 -tree path:16 -adversary 'omit(drop=300)'

# Serving-layer smoke: a 3-daemon loopback deployment hosting 100 concurrent
# sessions multiplexed over the shared links; exits non-zero if any session
# fails to decide or any Result diverges from the sequential sim.Run oracle.
# The 7-daemon t = 2 run does the same for sessions that stop at the
# ε-witness, before their schedule's end.
# The second run turns on the journal and the observability endpoint and
# asserts /healthz and /metrics from the outside with curl while the
# cluster lingers — among the families the two that say who did the work:
# writes and engine turns, inline against deferred.
serve-smoke:
	$(GO) run ./cmd/serve -cluster 3 -sessions 100 -tree spider:3:3
	$(GO) run ./cmd/serve -cluster 7 -t 2 -sessions 100
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

# Chaos safety soak (~15s): the race-instrumented chaos/transport suites
# (the plan, the injector and its golden fault schedules, the sync soak
# cells, the restart drills and the async cells under the injector;
# reconnect-resend, crash-fault byte-identity), the serving soak under
# delay faults and the overlay's crashed sub-leader, then a real fault
# sweep — seeds × {quiet, latency, stall, drop, partition, combined} link
# faults × adversaries, as check cells whose TCP run carries the link
# clauses, on a path and a block graph, every cell checked for honest-hull
# validity, 1-agreement, and byte-identity with the sequential sim.Run
# oracle — and a multi-process fleet where a crashed party (stop) sits
# beside the adversary host under link faults. Exits non-zero on any
# violation.
CHAOS_PLANS = none 'lat(base=1ms,jitter=1ms)' 'stall(from=1,rounds=2.3,dur=5ms)' \
	'drop(from=0,to=2,round=2)' 'part(a=0.1,b=2.3,rounds=2,heal=40ms)' \
	'lat(base=500us,jitter=500us)+drop(from=2,round=3)'
chaos-soak:
	$(GO) test -race -count=1 ./internal/chaos/... ./internal/transport/...
	$(GO) test -race -count=1 -run 'SoakUnderChaos|OverlayInteriorCrash' ./internal/session/ ./internal/overlay/
	@cells=; for at in path:16/1 path:16/2 graph:cliquechain:3:4/1; do \
		for adv in none splitvote; do for plan in $(CHAOS_PLANS); do \
			cells="$$cells|s=$${at##*/};tree=$${at%/*};n=4;t=1;in=spread;adv=$$adv+$$plan"; \
		done; done; done; \
	$(GO) run ./cmd/check -tcp-every 1 -async-every 0 -cells "$${cells#|}"
	$(GO) run ./cmd/node -cluster 7 -t 2 -tree path:16 \
		-adversary 'splitvote+stop(rounds=2)+lat(base=500us,jitter=500us)+drop(from=0,to=2,round=2)'

# Asynchronous-mode soak: every async suite under the race detector — RBC
# threshold boundaries, pipeline invariants, the event-driven transport
# driver, the serving layer's async engines, the checker's async cells, and
# the chaos package's async cells (AsyncLocalCluster under the injector),
# whose headline cell (200ms±150ms of latency on one party's links) aborts
# the synchronous round barrier but decides asynchronously with validity +
# 1-agreement — then a multi-process cmd/node async fleet under a real
# latency plan, plus async serving smokes, each on a tree and on a block
# graph, and one with the journal on — and a fleet whose dropped connection
# the count-exchange resume repairs underneath the event loop.
# Exits non-zero on any validity/epsilon-agreement violation.
async-soak:
	$(GO) test -race -count=1 -run Async ./internal/async/... ./internal/chaos/... \
		./internal/session/... ./internal/transport/... ./internal/check/
	$(GO) run ./cmd/node -cluster 4 -tree star:6 -mode async -adversary 'lat(base=20ms,jitter=15ms,from=2)'
	$(GO) run ./cmd/node -cluster 4 -tree path:16 -mode async -adversary 'drop(from=0,to=2,round=2)'
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

# One iteration of every Go sizing benchmark (the kernel cells, the space
# builds, the tally, a lane round, the sim engine, the async pipeline,
# vector decoding)
# and of the four experiment timing gauges EXPERIMENTS.md cites by ns/op
# (RealAA rounds and batch, Dolev–Strong cost, ed25519 signing): nothing
# else runs them, so this keeps them building and running. -benchmem prints
# each one's B/op and allocs/op (KernelCells: the kernel's allocations per
# cell, which TestKernelCellsAllocations bounds for sim.Run alone).
bench-go-smoke:
	$(GO) test -run '^$$' -bench 'KernelCells|ParseSpaces|Tally|LaneRound|RunBroadcast|PipelineRun|DecodeVector|E1RealAARounds|E1RealAABatch|E5bExactAgreementCost|E7ExactAASigning' -benchmem -benchtime 1x ./...

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

# Fuzz pass over all eleven fuzz targets, 30s each: tree parsing, the Prüfer
# codec, Euler-list invariants, hull/safe-area cross-checks, wire decoding,
# journal replay, a round frame applied to a driver, the transport link's
# frame parsers, the gradecast tally against its merge oracle, the
# adversary language's parser and the space language's parser.
fuzz:
	$(GO) test -run FuzzDecode -fuzz FuzzDecode -fuzztime 30s ./internal/wire/
	$(GO) test -run FuzzParse -fuzz FuzzParse -fuzztime 30s ./internal/tree/
	$(GO) test -run FuzzPruefer -fuzz FuzzPruefer -fuzztime 30s ./internal/tree/
	$(GO) test -run FuzzEulerList -fuzz FuzzEulerList -fuzztime 30s ./internal/tree/
	$(GO) test -run FuzzConvexHullSafeArea -fuzz FuzzConvexHullSafeArea -fuzztime 30s ./internal/tree/
	$(GO) test -run FuzzTally -fuzz FuzzTally -fuzztime 30s ./internal/gradecast/
	$(GO) test -run FuzzParseAdversary -fuzz FuzzParseAdversary -fuzztime 30s ./internal/cli/
	$(GO) test -run FuzzParseSpaceSpec -fuzz FuzzParseSpaceSpec -fuzztime 30s ./internal/cli/
	$(GO) test -run FuzzReplay -fuzz FuzzReplay -fuzztime 30s ./internal/journal/
	$(GO) test -run FuzzApplyRound -fuzz FuzzApplyRound -fuzztime 30s ./internal/driver/
	$(GO) test -run FuzzLinkFrames -fuzz FuzzLinkFrames -fuzztime 30s ./internal/transport/

# Quick fuzz pass: the same eleven targets as `fuzz` at 10s each, for use as a
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
	$(GO) test -run FuzzParseAdversary -fuzz FuzzParseAdversary -fuzztime 10s ./internal/cli/
	$(GO) test -run FuzzParseSpaceSpec -fuzz FuzzParseSpaceSpec -fuzztime 10s ./internal/cli/
	$(GO) test -run FuzzReplay -fuzz FuzzReplay -fuzztime 10s ./internal/journal/
	$(GO) test -run FuzzApplyRound -fuzz FuzzApplyRound -fuzztime 10s ./internal/driver/
	$(GO) test -run FuzzLinkFrames -fuzz FuzzLinkFrames -fuzztime 10s ./internal/transport/

# Property-based protocol checking (deterministic): a bounded random
# exploration of (tree, inputs, adversary) cells with per-round invariant
# evaluation, plus the fixed differential matrix under the race detector.
# Async-compatible cells additionally run through the event-driven runtime
# under every adversarial scheduler (-async-every). Any violation prints a
# shrunk one-line repro spec and fails the target. Every generated cell with
# t <= 1 is also held to the one-fault collapse (all honest decisions equal);
# the second line runs that lemma's exactness tests, Finding F-B at the
# Theorem 3 count and at the shipped schedule, the ε-witness's and the
# iteration-1 rules' property tests (with the tally's unanimity pin) and the
# schedule pinned by t under the race detector.
prop:
	$(GO) test -race -count=1 -run 'Differential|Async' ./internal/check/
	$(GO) test -race -count=1 -run 'OneFault|FindingFB|ScheduleByT|Witness|IterationOneRules|Unanimous' ./internal/realaa ./internal/adversary ./internal/core ./internal/gradecast
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
# nested benchmark module, the multi-process mesh (with the adversary host),
# the bench serve, kernel, async and mesh smokes, then the property (tree and
# graph), short fuzz and async-soak passes.
check: build test race-cpu bench-module node-smoke bench-serve-smoke bench-kernel-smoke bench-go-smoke bench-async-smoke bench-mesh-smoke prop graph-prop fuzz-short async-soak

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/robotgathering
	$(GO) run ./examples/configtree
	$(GO) run ./examples/oracle
	$(GO) run ./examples/asynctree

# Print every paper table of the experiment catalog (internal/experiments).
# The same text is pinned in testdata/experiments/ and in EXPERIMENTS.md's
# marked blocks; after a change that moves a number, rewrite both with
# `go test -run TestExperiment -update .` and review the diff.
experiments:
	$(GO) run ./cmd/experiments

clean:
	rm -f cover.out test_output.txt bench_output.txt
