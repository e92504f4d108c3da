GO ?= go

# FUZZTIME bounds each fuzz target in the smoke run; raise it locally
# for a real fuzzing session (e.g. make fuzz FUZZTIME=10m).
FUZZTIME ?= 10s

.PHONY: build fmt-check test race vet lint serve fuzz check bench-json bench-diff figures-digest

build:
	$(GO) build ./...

# fmt-check fails if any tracked Go file is not gofmt-clean.
fmt-check:
	@out=$$(git ls-files '*.go' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "fmt-check: not gofmt-clean:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs the static front-end leakage analyzer over the victim
# corpus and the codegen-emitted attack probes, asserting the canonical
# expectations (exit 1 on mismatch).
lint:
	$(GO) run ./cmd/uoplint -selftest

# serve boots the long-lived leakage-audit daemon: the same analysis as
# `make lint` behind HTTP/JSON with an incremental per-function summary
# cache, so repeat audits only re-analyze what changed. See the
# "Incremental audit service" section of DESIGN.md.
serve:
	$(GO) run ./cmd/uoplintd

# bench-json snapshots the benchmark suite as BENCH_<date>.json via
# cmd/benchjson: one record per benchmark with ns/op, allocs/op, and
# every custom metric (sim-cycles/s, sim-Kbit/s, …). BENCHTIME=1x keeps
# the snapshot cheap enough for CI; raise it locally (e.g.
# make bench-json BENCHTIME=2s) for a low-noise baseline.
BENCHTIME ?= 1x
BENCHDATE ?= $(shell date -u +%Y-%m-%d)

bench-json:
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) -benchmem . \
		| $(GO) run ./cmd/benchjson > BENCH_$(BENCHDATE).json
	@echo wrote BENCH_$(BENCHDATE).json

# bench-diff is the perf-regression gate: it takes a fresh
# -benchtime=1x snapshot and diffs it against the newest committed
# BENCH_*.json baseline, failing on a >10% drop in sim-cycles/s or
# findings/s. BENCHALLOW exempts benchmarks with intentional changes,
# e.g. make bench-diff BENCHALLOW=BenchmarkRefillSweep. The fresh
# snapshot lands in bench-new.json (untracked).
BENCHBASE ?= $(shell ls BENCH_*.json 2>/dev/null | sort | tail -n 1)
BENCHALLOW ?=

bench-diff:
	@test -n "$(BENCHBASE)" || { echo "bench-diff: no committed BENCH_*.json baseline"; exit 2; }
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) -benchmem . \
		| $(GO) run ./cmd/benchjson > bench-new.json
	$(GO) run ./cmd/benchjson -diff -allow '$(BENCHALLOW)' $(BENCHBASE) bench-new.json

# figures-digest regenerates every figure and table at seed 1 through
# perfbench and fails unless each one's digest matches the stored
# perfbench/testdata/expected.json. perfbench reports the comparison as
# "correct" in its JSON line but exits 0 either way, so the gate reads
# the field.
figures-digest:
	@out=$$(bash perfbench/run.sh --workload figures --seed 1 --seconds 1 --trace 0) || exit 1; \
	echo "$$out"; \
	case "$$out" in \
	*'"correct":true'*) ;; \
	*) echo "figures-digest: a figure or table no longer matches its stored digest"; exit 1 ;; \
	esac

# fuzz runs every native fuzz target for FUZZTIME each: the assembler
# and legacy-decode invariants, the indirect-target resolution
# completeness invariant, and the differential contracts — predicted vs
# simulator-measured refill deltas (including the resolution-gated
# indirect shapes), the receiver model's predicted vs attack-measured
# probe cycles, and the jump-alignment stall asymmetry on
# alignment-divergent victims — plus the checkpoint ≡ straight-line
# contract: a PointRunner's checkpointed measurements equal a fresh
# core's, under every profile, with cycle skip on and off — and the
# core ≡ reference contract: a generated program leaves the same
# architectural state on the pipelined core (any profile, skip on or
# off) as on the sequential interpreter — and the scheduler's
# bookkeeping: at every retirement of a generated program, single-thread
# and SMT, the backend's wakeup counts, consumer lists, ready set and
# timing wheel match a full scan of the ROB.
fuzz:
	$(GO) test ./internal/ref -fuzz FuzzCoreVsRef -fuzztime $(FUZZTIME)
	$(GO) test ./internal/backend -fuzz FuzzWorklistInvariants -fuzztime $(FUZZTIME)
	$(GO) test ./internal/asm -fuzz FuzzAssemble -fuzztime $(FUZZTIME)
	$(GO) test ./internal/decode -fuzz FuzzPlanRegion -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staticlint -fuzz FuzzIndirectResolve -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staticlint/difftest -fuzz FuzzPredictedDelta -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staticlint/difftest -fuzz FuzzProbeModel -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staticlint/difftest -fuzz FuzzAlignmentDelta -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staticlint/difftest -fuzz FuzzIndirectDelta -fuzztime $(FUZZTIME)
	$(GO) test ./internal/staticlint/difftest -fuzz FuzzPointRunner -fuzztime $(FUZZTIME)

check: fmt-check build vet test race lint figures-digest
	$(MAKE) fuzz FUZZTIME=5s
