GO ?= go

.PHONY: all check fmt-check vet lint staticcheck govulncheck fuzz-smoke build test race bench bench-baseline bench-compare cluster-smoke serve examples clean

all: check

check: fmt-check vet lint build race examples

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs mira-vet, the repo's own analyzer suite (internal/lint):
# eleven checks — six syntactic, five dataflow/interprocedural — each
# encoding an invariant a past PR paid for. The ./... target includes
# internal/lint and cmd/mira-vet themselves (the linter lints itself).
# Gating in CI; suppress a finding in-source with
# `//lint:ignore mira/<name> reason`. Use `-json` for the metrics CI
# scrapes (mira_vet_findings_total, per-analyzer wall time).
lint:
	$(GO) run ./cmd/mira-vet ./...

# staticcheck and govulncheck are pinned by version and fetched on
# demand via `go run pkg@version`, so they need network access: they run
# as separate CI jobs, not in `check` (the local loop stays offline).
STATICCHECK_VERSION ?= 2025.1.1
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

GOVULNCHECK_VERSION ?= v1.1.4
govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# fuzz-smoke runs each native fuzz target for a bounded slice: the
# three-way evaluator divergence fuzzer (walker vs compiled model vs VM
# over synthesized programs), the model codec, object file and
# compiled-unit decoders on arbitrary bytes (no panic, bounded
# allocation, stable round trip), and the whole cold pipeline on
# arbitrary source seeded with the benchmark programs (no panic, a
# per-input time budget, identical model and warnings on a second run).
# CI runs it on every push, so all of them stay continuously fuzzed.
# go test fuzzes one target per invocation.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzThreeWayEvaluators -fuzztime $(FUZZTIME) ./internal/synth
	$(GO) test -run xxx -fuzz '^FuzzDecodeFunc$$' -fuzztime $(FUZZTIME) ./internal/model
	$(GO) test -run xxx -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/objfile
	$(GO) test -run xxx -fuzz '^FuzzDecodeUnit$$' -fuzztime $(FUZZTIME) ./internal/cc
	$(GO) test -run xxx -fuzz '^FuzzAnalyze$$' -fuzztime $(FUZZTIME) ./internal/core

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x ./

# bench-baseline records the performance trajectory: the sweep
# (compiled-vs-treewalk), cache (cold-vs-warm), incremental-edit,
# report-path (suite -> engine sweeps -> typed report -> JSON) and
# cold-analysis (core.Analyze of miniFE and a Table I synthetic, with
# allocs/op) benchmarks as a test2json event stream. -benchtime 5x
# keeps each sample cheap while giving -compare a median to stand on.
# CI compares a fresh run against the committed previous baseline
# (gating, see bench-compare) and uploads the file as an artifact.
BENCH_BASELINE_OUT ?= BENCH_9.json
BENCH_SET = BenchmarkColdAnalyze|BenchmarkSweep_CompiledVsTreeWalk|BenchmarkSweep_CompileOnce|BenchmarkEngineEval_ColdVsWarm|BenchmarkReport_SuitePath|BenchmarkIncrementalEdit|BenchmarkCrossArchSweep|BenchmarkCluster_
bench-baseline:
	$(GO) test -json -run xxx -benchtime 5x \
		-bench '$(BENCH_SET)' \
		. > $(BENCH_BASELINE_OUT)
	@grep -o '"Output":".*speedup-x[^"]*"' $(BENCH_BASELINE_OUT) | tail -2
	@grep -o '"Output":".*rows/s[^"]*"' $(BENCH_BASELINE_OUT) | tail -1

# bench-compare gates on benchmark regressions: a fresh baseline against
# the committed previous one, host-normalized (the two may come from
# different machines), failing on >15% relative slowdowns in benchmarks
# above the 100µs noise floor.
BENCH_COMPARE_OLD ?= BENCH_9.json
bench-compare:
	$(GO) test -json -run xxx -benchtime 5x \
		-bench '$(BENCH_SET)' \
		. > BENCH_ci_fresh.json
	$(GO) run ./cmd/mira-bench -compare -normalize -threshold 15 \
		$(BENCH_COMPARE_OLD) BENCH_ci_fresh.json

# cluster-smoke is the end-to-end cluster gate: three loopback replicas
# sharing a peer cache tier serve a mixed interactive/bulk load, the
# peer-hit counter must be non-zero (the shared tier is real), the
# interactive class must see zero 5xx, and killing one replica mid-run
# must not fail in-flight interactive requests. See
# cmd/mira-serve/cluster_test.go (TestClusterSmoke).
cluster-smoke:
	$(GO) test -run TestClusterSmoke -count 1 -v ./cmd/mira-serve

serve:
	$(GO) run ./cmd/mira-serve -cache-dir .mira-cache

examples:
	@set -e; for d in examples/*/; do \
		echo "== go run ./$$d"; \
		$(GO) run "./$$d" > /dev/null; \
	done

clean:
	$(GO) clean ./...
