GO ?= go

.PHONY: build test vet fmt-check race fuzzsmoke verify bench serve loadsmoke load shardsmoke feedbacksmoke

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
# its committed seed corpus (internal/*/testdata/fuzz): the front-end with
# and without a recycled scratch, the session against the one-shot
# functions after every edit, the traceparent parser against its grammar,
# the solver kernel against the interpreted folded reference, and the
# artifact frame (Open errors with a named sentinel, or Seal gives the
# input back, and the cursor never hands out more than it holds).
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz FuzzFrontEndScratchEquivalence -fuzztime=5s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzSessionEdits -fuzztime=5s ./internal/incr
	$(GO) test -run '^$$' -fuzz FuzzParseTraceparent -fuzztime=5s ./internal/obs/trace
	$(GO) test -run '^$$' -fuzz FuzzKernelMatchesReference -fuzztime=5s ./internal/lp
	$(GO) test -run '^$$' -fuzz FuzzEnvelopeOpen -fuzztime=5s ./internal/envelope

# verify = tier-1 (build + full tests) plus gofmt, vet, the race checks, the
# five five-second fuzz smokes, the end-to-end load smoke (real seldond + seldonload over loopback), the
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
# (-flowcache), and an incremental constraint build — and requires the
# same cmp.
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
		-o .shardsmoke/stream.json >/dev/null 2>&1 && \
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

# serve learns a spec store (if absent) and boots the taint service on
# :8647 — /v1/check, /v1/specs, /v1/healthz, /metrics, /debug/pprof/.
specs.json:
	$(GO) run ./cmd/seldon -generate 240 -o $@ >/dev/null

serve: specs.json
	$(GO) run ./cmd/seldond -specs specs.json -addr :8647 -v
