GO ?= go

.PHONY: build test vet fmt-check race fuzzsmoke fmacheck verify bench serve loc experiments fixtures

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

# fixtures re-records the persisted-format fixtures — testdata/entry.fpc,
# slice.shard, state.bin and flowcache.bin — and the fuzz seeds cut from
# them, from what the code writes; go test ./... holds them there. A PR
# that bumps a format version runs this, and the diff shows which formats
# moved.
fixtures:
	UPDATE_GOLDEN=1 $(GO) test -run '^TestFixtureRoundTrip$$' ./internal/fpcache ./internal/shard
	UPDATE_GOLDEN=1 $(GO) test -run '^TestStateFixtureRoundTrip$$' ./internal/incr
	UPDATE_GOLDEN=1 $(GO) test -run '^TestFlowCacheFixtureRoundTrip$$' ./internal/constraints

# loc prints the four sizes every CHANGES.md entry reports (ROADMAP
# Conventions): non-test and test Go lines outside bench/ and testdata/
# (so that a move into _test.go shows as a move, and a test's fixture
# module counts as neither), flag registrations under cmd/, and the number
# of binaries.
loc:
	@printf 'non-test Go lines outside bench/: %s\n' "$$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l)"
	@printf 'test Go lines outside bench/:     %s\n' "$$(find . -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l)"
	@printf 'flag registrations under cmd/:    %s\n' "$$(grep -rhoE '\b(flag|fs)\.(String|Int|Int64|Bool|Float64|Duration)(Var)?\(' cmd --include='*.go' | wc -l)"
	@printf 'binaries (ls cmd):                %s\n' "$$(ls cmd | wc -l)"

# Race-check the packages with concurrency-sensitive surfaces: the
# parallel-loop helper every fan-out below runs on, the metrics
# registry, the sharded solver kernel, the parallel corpus front-end and
# the lexer, parser, analyzer and arenas its workers run with
# per-goroutine scratch state, the analysis cache, the HTTP service
# (worker pool, backpressure, drain, hot reload) and the sharded
# check-result cache every request locks, the symbol interner
# and the fanned-out union copy, the sharded constraint build, the shard
# coordinator's concurrent artifact decode, and the incremental session
# that hands union and build their spans. Last, the root serving test:
# the one that checks exact healthz counts after concurrent misses and
# hits over a real listener.
race:
	$(GO) test -race ./internal/par/... ./internal/obs/... ./internal/lp/... ./internal/core/... ./internal/arena/... ./internal/pytoken/... ./internal/pyparse/... ./internal/dataflow/... ./internal/fpcache/... ./internal/service/... ./internal/checkcache/... ./internal/propgraph/... ./internal/constraints/... ./internal/shard/... ./internal/incr/...
	$(GO) test -race -run '^TestServeLearnedSpecs$$' .

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

# fmacheck holds the store's path free of fused multiply-add. The Go spec
# lets a compiler fuse x*y + z into one rounding; only an explicit
# float64(x*y) forbids it, and amd64 never fuses, so a missing conversion
# shows only elsewhere. It cross-compiles cmd/seldon for five
# architectures that do fuse, disassembles the packages a store is
# computed in, and fails naming every function holding a floating fused
# opcode (arm64's integer MADD/MSUB and loong64's atomic AMADD are not).
FMA_ARCHS = arm64 ppc64le s390x riscv64 loong64
FMA_PKGS = seldon/internal/(lp|constraints|core|incr|spec)\.
FMA_OPS = ^(FN?M(ADD|SUB)[DSF]?|XSN?M(ADD|SUB)[AM][DS]P|M[AS][DE]BR?|WFN?M[AS][DS]B)$$
fmacheck:
	@d=$$(mktemp -d); st=0; \
	for a in $(FMA_ARCHS); do \
		GOOS=linux GOARCH=$$a $(GO) build -o $$d/seldon-$$a ./cmd/seldon || { st=1; continue; }; \
		found=$$($(GO) tool objdump -s '$(FMA_PKGS)' $$d/seldon-$$a | \
			awk '$$1 == "TEXT" { fn = $$2; sub(/^seldon\/internal\//, "", fn); sub(/\(SB\)$$/, "", fn); next } \
				$$4 ~ /$(FMA_OPS)/ { print fn }' | sort -u); \
		for f in $$found; do echo "fmacheck: $$a: fused multiply-add in $$f"; st=1; done; \
	done; rm -rf $$d; \
	[ $$st = 0 ] && echo "fmacheck OK: no fused multiply-add in lp, constraints, core, incr, spec on $(FMA_ARCHS)"; \
	exit $$st

# verify = tier-1 (build + full tests) plus gofmt, vet, the race checks
# (the continuous-learning loop among them: internal/service), five
# seconds of every fuzz target and the fused-multiply-add check. The
# distributed-learning oracle over real `seldon shard` and `seldon
# coordinate` processes is cmd/seldon's TestShardedLearnIsSingleProcessLearn
# and serving end to end — a learned store behind a loopback port,
# concurrent misses then hits — is the root TestServeLearnedSpecs, both part
# of test; serving performance is bench/'s check_miss and check_dup.
verify: fmt-check vet race build test fuzzsmoke fmacheck
	@echo "verify OK"

bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# serve learns a spec store (if absent) and boots the taint service on
# :8647 — /v1/check, /v1/specs, /v1/healthz, /metrics, /debug/pprof/.
specs.json:
	$(GO) run ./cmd/seldon learn -generate 240 -o $@ >/dev/null

serve: specs.json
	$(GO) run ./cmd/seldond -specs specs.json -addr :8647 -v
