GO ?= go

.PHONY: build test vet fmt-check race fuzzsmoke verify bench serve shardsmoke loc experiments

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails, naming the files, if anything is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

# experiments rewrites the measured blocks of EXPERIMENTS.md from what the
# code produces; go test ./... holds them there (TestExperimentsGolden). A
# PR that is meant to move them runs this, and the diff is its claim.
experiments:
	UPDATE_GOLDEN=1 $(GO) test -run '^TestExperimentsGolden$$' ./internal/experiments

# loc prints the four sizes every CHANGES.md entry reports (ROADMAP
# Conventions): non-test and test Go lines outside bench/ (so that a move
# into _test.go shows as a move), flag registrations under cmd/, and the
# number of binaries.
loc:
	@printf 'non-test Go lines outside bench/: %s\n' "$$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
	@printf 'test Go lines outside bench/:     %s\n' "$$(find . -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
	@printf 'flag registrations under cmd/:    %s\n' "$$(grep -rhoE '\b(flag|fs)\.(String|Int|Int64|Bool|Float64|Duration)(Var)?\(' cmd --include='*.go' | wc -l)"
	@printf 'binaries (ls cmd):                %s\n' "$$(ls cmd | wc -l)"

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

# fuzzsmoke finds every fuzz target under internal/ and runs each for five
# seconds on top of its committed seed corpus (internal/*/testdata/fuzz),
# stopping at the first failure; a new target is picked up by being written.
# It prints the number it ran, which ROADMAP Conventions records.
fuzzsmoke:
	@n=0; for pkg in $$($(GO) list ./internal/...); do \
		names=$$($(GO) test -list '^Fuzz' $$pkg) || { echo "$$names"; exit 1; }; \
		for name in $$(echo "$$names" | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$name"; \
			$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime=5s $$pkg || exit 1; \
			n=$$((n+1)); \
		done; \
	done; echo "fuzzsmoke OK: $$n targets"

# verify = tier-1 (build + full tests) plus gofmt, vet, the race checks
# (the continuous-learning loop among them: internal/service), five
# seconds of every fuzz target, and the distributed-learning smoke (real
# worker subprocesses + coordinator). Serving end to end — a learned store
# behind a loopback port, concurrent misses then hits — is the root
# TestServeLearnedSpecs, part of test; serving performance is bench/'s
# check_miss and check_dup.
verify: fmt-check vet race build test fuzzsmoke shardsmoke
	@echo "verify OK"

# shardsmoke is the distributed-learning determinism oracle, end to end
# over real processes of one binary: generate a corpus on disk, analyze it
# as three `seldon shard` processes writing wire-format artifacts,
# coordinate them (-shards-in), and require the spec store to be
# byte-identical (cmp) to `seldon learn` on the same corpus, and to itself
# run again under GOMAXPROCS=1: the corpus is 400 files so that each
# artifact's graph sections pass the size from which they are decoded on
# several goroutines, which are thus held to the one-goroutine answer. The
# workers ship fpcache sidecars (-ship-cache) and the first coordinator
# ingests them into its -cache-dir, the path for workers that share no
# disk with it: a `seldon learn` over that directory must then hit on all
# 400 files and write the same store. A second pass has the coordinator
# spawn its own workers (-exec-shards); a third adds a shared -cache-dir
# and a persisted flow-constraint cache (-flowcache), and both require the
# same cmp. Any drift in slicing, the codec, symbol translation, the
# sidecar keys or the merge fails here before it can skew a real corpus.
shardsmoke:
	rm -rf .shardsmoke && mkdir -p .shardsmoke && \
	$(GO) build -o .shardsmoke/seldon ./cmd/seldon && \
	$(GO) run ./cmd/corpusgen -out .shardsmoke/corpus -files 400 >/dev/null && \
	./.shardsmoke/seldon learn -dir .shardsmoke/corpus -seedfile .shardsmoke/corpus/seed.spec -o .shardsmoke/single.json >/dev/null && \
	for i in 0 1 2; do ./.shardsmoke/seldon shard -dir .shardsmoke/corpus -slices 3 -slice $$i -ship-cache -o .shardsmoke/p$$i.shard 2>/dev/null || exit 1; done && \
	./.shardsmoke/seldon coordinate -shards-in '.shardsmoke/p*.shard' -seedfile .shardsmoke/corpus/seed.spec \
		-cache-dir .shardsmoke/ingest -o .shardsmoke/dist.json >/dev/null && \
	cmp .shardsmoke/single.json .shardsmoke/dist.json && \
	GOMAXPROCS=1 ./.shardsmoke/seldon coordinate -shards-in '.shardsmoke/p*.shard' -seedfile .shardsmoke/corpus/seed.spec -o .shardsmoke/dist1.json >/dev/null && \
	cmp .shardsmoke/dist.json .shardsmoke/dist1.json && \
	./.shardsmoke/seldon learn -dir .shardsmoke/corpus -seedfile .shardsmoke/corpus/seed.spec \
		-cache-dir .shardsmoke/ingest -o .shardsmoke/ingest.json >.shardsmoke/ingest.out && \
	grep '^cache: 400/400 hits' .shardsmoke/ingest.out && \
	cmp .shardsmoke/single.json .shardsmoke/ingest.json && \
	./.shardsmoke/seldon learn -generate 60 -o .shardsmoke/gen_single.json >/dev/null && \
	./.shardsmoke/seldon coordinate -generate 60 -exec-shards 3 -o .shardsmoke/exec.json >/dev/null 2>&1 && \
	cmp .shardsmoke/gen_single.json .shardsmoke/exec.json && \
	./.shardsmoke/seldon coordinate -generate 60 -exec-shards 3 \
		-cache-dir .shardsmoke/fpc -flowcache .shardsmoke/flow.bin \
		-o .shardsmoke/stream.json >/dev/null 2>&1 && \
	cmp .shardsmoke/gen_single.json .shardsmoke/stream.json && \
	echo "shardsmoke OK: coordinator stores byte-identical to single-process"; \
	st=$$?; rm -rf .shardsmoke; exit $$st

bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# serve learns a spec store (if absent) and boots the taint service on
# :8647 — /v1/check, /v1/specs, /v1/healthz, /metrics, /debug/pprof/.
specs.json:
	$(GO) run ./cmd/seldon learn -generate 240 -o $@ >/dev/null

serve: specs.json
	$(GO) run ./cmd/seldond -specs specs.json -addr :8647 -v
