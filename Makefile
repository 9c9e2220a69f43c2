GO ?= go

# bench-json snapshot name; parameterized so each PR's snapshot
# (BENCH_<pr>.json) doesn't overwrite the last.
BENCH ?= BENCH_10.json

.PHONY: build test vet fmt-check race fuzzsmoke verify bench bench-json serve loadsmoke load shardsmoke feedbacksmoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails, naming the files, if anything is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

# Race-check the packages with concurrency-sensitive surfaces: the
# metrics registry, the sharded solver kernel, the parallel corpus
# front-end and the lexer, parser, analyzer and arenas its workers run
# with per-goroutine scratch state, the analysis cache, the HTTP service
# (worker pool, backpressure, drain, hot reload) and the sharded
# check-result cache every request locks, the symbol interner
# and the fanned-out union copy, the sharded constraint build, the shard
# worker/coordinator (subprocess fan-out, concurrent artifact decode),
# and the incremental session that hands union and build their spans.
race:
	$(GO) test -race ./internal/obs/... ./internal/lp/... ./internal/core/... ./internal/arena/... ./internal/pytoken/... ./internal/pyparse/... ./internal/dataflow/... ./internal/fpcache/... ./internal/service/... ./internal/checkcache/... ./internal/propgraph/... ./internal/constraints/... ./internal/shard/... ./internal/incr/...

# fuzzsmoke rotates every fuzz target through five seconds each, on top of
# its committed seed corpus: the front-end's (internal/core/testdata/fuzz —
# arbitrary bytes as a source file must not panic and must analyze to the
# same graph and parse error with a recycled scratch as without one) and
# the session's (internal/incr/testdata/fuzz — arbitrary bytes as a
# program of splices, retractions, pins and re-learns must leave the
# standing union, the constraint system and the solution equal to what
# the one-shot functions compute from the same files) and the traceparent
# parser's (internal/obs/trace/testdata/fuzz — an arbitrary header value
# must be accepted exactly when it is a well-formed version-00 header,
# with the IDs found where the grammar puts them, and cost no allocation)
# and the solver's (internal/lp/testdata/fuzz — arbitrary bytes as a small
# problem full of duplicates and near-duplicates, solved cold or warm,
# through a fresh row table or a standing one, must come out of the kernel
# bit for bit as out of the interpreted solver of the folded problem).
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz FuzzFrontEndScratchEquivalence -fuzztime=5s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzSessionEdits -fuzztime=5s ./internal/incr
	$(GO) test -run '^$$' -fuzz FuzzParseTraceparent -fuzztime=5s ./internal/obs/trace
	$(GO) test -run '^$$' -fuzz FuzzKernelMatchesReference -fuzztime=5s ./internal/lp

# verify = tier-1 (build + full tests) plus gofmt, vet, the race checks, the
# four five-second fuzz smokes, the end-to-end load smoke (real seldond + seldonload over loopback), the
# distributed-learning smoke (real worker subprocesses + coordinator),
# and the continuous-learning smoke (feedback loop under -race).
verify: fmt-check vet race build test fuzzsmoke loadsmoke shardsmoke feedbacksmoke
	@echo "verify OK"

# loadsmoke boots the service in-process on a free port, drives two
# seconds of closed-loop load through /v1/check, and fails on any
# 5xx/transport error or an empty /debug/traces ring — the cheapest
# end-to-end check that serving, tracing, and exposition all work.
# A second pass replays a duplicate-heavy mix (-dup 0.8) and must come
# back with zero 5xx AND a nonzero check-cache hit rate, so a broken
# cache key or invalidation fails CI, not just a slow run.
loadsmoke:
	$(GO) run ./cmd/seldon -generate 60 -o .smokespecs.json >/dev/null && \
	$(GO) run ./cmd/seldonload -specs .smokespecs.json -duration 2s -warmup 200ms -c 4 -smoke && \
	$(GO) run ./cmd/seldonload -specs .smokespecs.json -duration 2s -warmup 200ms -c 4 -dup 0.8 -smoke; \
	st=$$?; rm -f .smokespecs.json; exit $$st

# shardsmoke is the distributed-learning determinism oracle, end to end
# over real processes: generate a corpus on disk, analyze it as three
# seldon-shard worker processes writing wire-format artifacts, coordinate
# them (seldon -shards-in), and require the resulting spec store to be
# byte-identical (cmp) to a single-process run on the same corpus. A
# second pass exercises the subprocess executor (-exec-shards) the same
# way. A third pass exercises the full streaming stack — 3 workers over
# stdout pipes with fpcache sidecars (-ship-cache), coordinator-side
# sidecar ingest (-cache-dir), a persisted flow-constraint cache
# (-flowcache), and an incremental constraint build — asserting via
# benchjson -check-stream that the decoded peak stayed strictly below
# the total artifact volume (the coordinator streamed, it didn't
# buffer), and via cmp that the store still matches single-process.
# Any drift in slicing, the codec, symbol translation, or the merge
# fails loudly here before it can skew a real corpus.
shardsmoke:
	rm -rf .shardsmoke && mkdir -p .shardsmoke && \
	$(GO) build -o .shardsmoke/seldon ./cmd/seldon && \
	$(GO) build -o .shardsmoke/seldon-shard ./cmd/seldon-shard && \
	$(GO) run ./cmd/corpusgen -out .shardsmoke/corpus -files 60 >/dev/null && \
	./.shardsmoke/seldon -dir .shardsmoke/corpus -seedfile .shardsmoke/corpus/seed.spec -o .shardsmoke/single.json >/dev/null && \
	./.shardsmoke/seldon-shard -dir .shardsmoke/corpus -slices 3 -slice 0 -o .shardsmoke/p0.shard 2>/dev/null && \
	./.shardsmoke/seldon-shard -dir .shardsmoke/corpus -slices 3 -slice 1 -o .shardsmoke/p1.shard 2>/dev/null && \
	./.shardsmoke/seldon-shard -dir .shardsmoke/corpus -slices 3 -slice 2 -o .shardsmoke/p2.shard 2>/dev/null && \
	./.shardsmoke/seldon -shards-in '.shardsmoke/p*.shard' -seedfile .shardsmoke/corpus/seed.spec -o .shardsmoke/dist.json >/dev/null && \
	cmp .shardsmoke/single.json .shardsmoke/dist.json && \
	./.shardsmoke/seldon -generate 60 -o .shardsmoke/gen_single.json >/dev/null && \
	./.shardsmoke/seldon -generate 60 -exec-shards 3 -shard-bin ./.shardsmoke/seldon-shard -o .shardsmoke/exec.json >/dev/null 2>&1 && \
	cmp .shardsmoke/gen_single.json .shardsmoke/exec.json && \
	./.shardsmoke/seldon -generate 60 -exec-shards 3 -shard-bin ./.shardsmoke/seldon-shard \
		-ship-cache -cache-dir .shardsmoke/fpc -flowcache .shardsmoke/flow.bin \
		-metrics-json .shardsmoke/coord.json -o .shardsmoke/stream.json >/dev/null 2>&1 && \
	$(GO) run ./cmd/benchjson -check-stream .shardsmoke/coord.json && \
	cmp .shardsmoke/gen_single.json .shardsmoke/stream.json && \
	echo "shardsmoke OK: coordinator stores byte-identical to single-process"; \
	st=$$?; rm -rf .shardsmoke; exit $$st

# feedbacksmoke drives the continuous-learning loop end to end under
# the race detector: learn a store inside an incremental session, serve
# it, report a finding over a learned entry, warm the check cache with
# an identical request, reject the finding via POST /v1/feedback
# (asserting a new store generation, a fully span-reused warm re-solve,
# and that the previously-cached check no longer reports the flow),
# then accept the same symbol and assert the finding returns. A stale
# cache entry, missing pin, or stuck generation fails CI here.
feedbacksmoke:
	$(GO) run -race ./cmd/feedbacksmoke

# load runs a longer self-served closed-loop measurement and prints the
# latency percentiles (see also: seldonload -rps for open-loop SLO runs
# against an already-running seldond).
load: specs.json
	$(GO) run ./cmd/seldonload -specs specs.json -duration 10s -warmup 1s -c 8

bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# bench-json captures a metrics snapshot (stage-timer p50s, worker gauge,
# cache.* counters and warm speedup, intern.* gauges) of a representative
# parallel run: a cold pass populates a throwaway analysis cache, then
# the warm pass — the one snapshotted — replays it with every file a hit.
# The interning/union/check-handler microbenchmarks are merged into the
# same file as bench.* gauges (ns_op, B_op, allocs_op), and self-served
# seldonload runs add three load sections: "load" (cycled corpus,
# cache-assisted), "load_dup" (duplicate-heavy -dup 0.8 mix, the shape
# the check cache and coalescing exist for), and "load_dup_cold" (the
# same mix with the cache disabled) — so the snapshot itself carries the
# cache-on/cache-off comparison. Finally a "distributed" section compares
# the same 2400-file corpus learned single-process vs. fanned out to 4
# local seldon-shard subprocesses (wall times, speedup, merge/exec cost,
# artifact bytes). The speedup is hardware-relative — on a single-core
# box the fan-out can only lose; the numbers that must stay small
# regardless are merge_s and exec overhead beyond the slowest worker.
# The section merges must stay after the typed benchjson rewrite, which
# drops foreign sections. Last, an "incremental" section compares a
# from-scratch re-learn of a mutated on-disk corpus against a
# persistent-session re-learn (seldon -session-dir) of the same corpus:
# full vs delta wall (the delta run re-analyzes one changed file out of
# 240), span/constraint reuse, and warm vs cold solver epochs. The
# invariant worth watching is delta_wall_s staying a small fraction of
# full_wall_s — that ratio is the whole point of internal/incr. A
# "distributed_stream" section then runs the same 2400-file fan-out
# twice through the streaming coordinator with warmth shipping on
# (-ship-cache sidecars into a shared fpcache, -flowcache persisted
# between runs): the cold pass seeds both caches, the warm pass is the
# snapshot — its flowcache_hit_rate must be nonzero and peak_bytes must
# sit well below artifact_bytes (the coordinator held one slice, not
# the corpus).
bench-json:
	rm -rf .benchcache && \
	$(GO) run ./cmd/seldon -generate 240 -workers 4 -cache-dir .benchcache -o .benchspecs.json >/dev/null && \
	$(GO) run ./cmd/seldon -generate 240 -workers 4 -cache-dir .benchcache -metrics-json $(BENCH) >/dev/null && \
	rm -rf .benchcache && \
	$(GO) test -run='^$$' -bench='BenchmarkConstraintsBuild|BenchmarkUnion|BenchmarkCheckHandler' -benchmem \
		./internal/constraints/ ./internal/propgraph/ ./internal/service/ | $(GO) run ./cmd/benchjson -into $(BENCH) && \
	$(GO) run ./cmd/seldonload -specs .benchspecs.json -duration 3s -warmup 500ms -c 4 -into $(BENCH) >/dev/null && \
	$(GO) run ./cmd/seldonload -specs .benchspecs.json -duration 3s -warmup 500ms -c 8 -dup 0.8 \
		-section load_dup -into $(BENCH) >/dev/null && \
	$(GO) run ./cmd/seldonload -specs .benchspecs.json -duration 3s -warmup 500ms -c 8 -dup 0.8 \
		-check-cache-entries 0 -section load_dup_cold -into $(BENCH) >/dev/null && \
	$(GO) build -o .shardbin/seldon-shard ./cmd/seldon-shard && \
	$(GO) run ./cmd/seldon -generate 2400 -metrics-json .dist_single.json >/dev/null && \
	$(GO) run ./cmd/seldon -generate 2400 -exec-shards 4 -shard-bin ./.shardbin/seldon-shard \
		-metrics-json .dist_shards.json >/dev/null 2>&1 && \
	$(GO) run ./cmd/benchjson -dist-single .dist_single.json -dist-shards .dist_shards.json \
		-shards 4 -into $(BENCH) && \
	rm -rf .incrcorpus .incrsession && \
	$(GO) run ./cmd/corpusgen -out .incrcorpus -files 240 >/dev/null && \
	$(GO) run ./cmd/seldon -dir .incrcorpus -seedfile .incrcorpus/seed.spec \
		-session-dir .incrsession >/dev/null && \
	f=$$(ls .incrcorpus/proj000/*.py | head -n1) && \
	printf '\ndef bench_probe(q):\n    y = q.fetch()\n' >> $$f && \
	$(GO) run ./cmd/seldon -dir .incrcorpus -seedfile .incrcorpus/seed.spec \
		-session-dir .incrsession -metrics-json .incr_delta.json >/dev/null && \
	$(GO) run ./cmd/seldon -dir .incrcorpus -seedfile .incrcorpus/seed.spec \
		-metrics-json .incr_full.json >/dev/null && \
	$(GO) run ./cmd/benchjson -incr-full .incr_full.json -incr-delta .incr_delta.json -into $(BENCH) && \
	rm -rf .streamfpc .streamflow.bin && \
	$(GO) run ./cmd/seldon -generate 2400 -exec-shards 4 -shard-bin ./.shardbin/seldon-shard \
		-ship-cache -cache-dir .streamfpc -flowcache .streamflow.bin \
		-metrics-json .stream_cold.json >/dev/null 2>&1 && \
	$(GO) run ./cmd/seldon -generate 2400 -exec-shards 4 -shard-bin ./.shardbin/seldon-shard \
		-ship-cache -cache-dir .streamfpc -flowcache .streamflow.bin \
		-metrics-json .stream_warm.json >/dev/null 2>&1 && \
	$(GO) run ./cmd/benchjson -stream-cold .stream_cold.json -stream-warm .stream_warm.json \
		-shards 4 -into $(BENCH) && \
	rm -rf .benchspecs.json .shardbin .dist_single.json .dist_shards.json \
		.incrcorpus .incrsession .incr_full.json .incr_delta.json \
		.streamfpc .streamflow.bin .stream_cold.json .stream_warm.json

# serve learns a spec store (if absent) and boots the taint service on
# :8647 — /v1/check, /v1/specs, /v1/healthz, /metrics, /debug/pprof/.
specs.json:
	$(GO) run ./cmd/seldon -generate 240 -o $@ >/dev/null

serve: specs.json
	$(GO) run ./cmd/seldond -specs specs.json -addr :8647 -v
