# Convenience targets; `make check` is the same gate CI runs.

.PHONY: check build vet lint lint-sarif bench bench-lint bench-train test race determinism fuzz

check:
	./scripts/check.sh

build:
	go build ./...

vet:
	go vet ./...

# Timed so suite-cost regressions are visible at every invocation; CI
# additionally enforces a hard wall-clock budget (scripts/check.sh).
lint:
	time go run ./cmd/fedlint ./...

# Machine-readable findings for CI artifacts and SARIF viewers.
lint-sarif:
	go run ./cmd/fedlint -sarif ./...

# Benchmarks the analyzer suite (parse/type-check excluded) — the number
# the fedlint wall-clock budget guards.
bench-lint:
	go test -bench 'DefaultSuite|PrivacyTaint|WireBound' -benchmem -run XXX ./internal/lint/

# Hot-path benchmark gate: runs BenchmarkControlStepLatency,
# BenchmarkPolicyUpdate{,Batch}, BenchmarkReplayAdd and the
# BenchmarkWire{Encode,Decode,RoundTrip} wire-path benchmarks with
# -benchmem and -count=3 (gating on the per-benchmark minimum ns/op),
# records BENCH_<date>.json and fails on a >20 % ns/op regression — or any
# allocs/op increase — against the committed BENCH_baseline.json
# (scripts/benchdiff.sh).
bench:
	./scripts/benchdiff.sh

# Training-kernel benchmarks only — the mini-batch policy update on the
# batched kernels (its batch-size cost model) and the steady-state replay
# ring Add — the quick loop for kernel work, without the regression gate.
bench-train:
	go test -run '^$$' -bench 'BenchmarkPolicyUpdate$$|BenchmarkPolicyUpdateBatch$$|BenchmarkReplayAdd$$' -benchmem -count=3 .

test:
	go test ./...

race:
	go test -race ./...

# Determinism gate: the resilience tests run twice and must replay
# bit-identically (fault schedules, zero-fault TCP results), the parallel
# experiment engine must match sequential execution bit-for-bit, the
# codec bit-identity tests must reproduce the dense result through the
# delta codec — in-process and over TCP — twice over, the hierarchical
# aggregation trees (randomized in-process topologies and 2-/3-level TCP
# fleets) must reproduce the flat federation bit-for-bit, the batched
# training kernels (ForwardBatch/BackwardBatch, the batched controller
# update, and a whole Fig. 3 scenario) must reproduce the scalar kernels
# bit-for-bit, and the parallel aggregation plane (the server's round
# workers at widths 1/2/8 per codec, the parallel tree runner, and the TCP
# tree deployment at Parallelism 4) must reproduce the sequential runs
# bit-for-bit.
determinism:
	go test -run 'Resilience|ParallelMatchesSequential|ParallelAggregation|CodecDenseBitIdentical|CodecDeltaBitIdentical|TreeBitIdentical|BatchBitIdentical' -count=2 ./internal/fed/... ./internal/experiment/... ./internal/nn/... ./internal/core/... .

# Extended fuzzing of the federation wire format and the exact accumulator
# (seed corpora always run as part of `make test`).
fuzz:
	go test -fuzz=FuzzWireRoundTrip -fuzztime=30s ./internal/fed/
	go test -fuzz=FuzzReadMessage -fuzztime=30s ./internal/fed/
	go test -fuzz=FuzzFaultyReadMessage -fuzztime=30s ./internal/fed/
	go test -fuzz=FuzzDeltaRoundTrip -fuzztime=30s ./internal/fed/
	go test -fuzz=FuzzQuantRoundTrip -fuzztime=30s ./internal/fed/
	go test -fuzz=FuzzRelayFrame -fuzztime=30s ./internal/fed/
	go test -fuzz=FuzzAccum -fuzztime=30s ./internal/nn/
