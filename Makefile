# Developer and CI entry points. The heavy TPC-H secure-protocol tests
# are gated behind testing.Short(), so `make race` stays fast while
# `make test` runs the full tier-1 suite.

GO ?= go

.PHONY: all test short race race-sessions race-chunks race-backends race-obs race-kernels race-daemon bench bench-check vet fuzz

all: vet test

# Tier-1 verification: full build plus the complete test suite.
test:
	$(GO) build ./...
	$(GO) test ./...

# Fast suite: skips the full secure TPC-H query runs.
short:
	$(GO) test -short ./...

# Race detector over the parallel crypto kernels and everything else;
# -short keeps the slow TPC-H figures out of the (already ~10x slower)
# instrumented run.
race:
	$(GO) test -race -short ./...

# The session layer's concurrency and robustness suites under the race
# detector, repeated to shake out interleavings: stream multiplexing,
# heartbeats/deadlines, fault injection, and the concurrent-session
# transcript-equivalence tests.
race-sessions:
	$(GO) test -race -count=3 -timeout 30m -run 'Mux|Fault|Session' ./internal/transport ./internal/mpc ./internal/core .

# The chunk-invariance suites under the race detector, repeated: the
# streaming executor must produce byte-identical transcripts at every
# chunk size, including under concurrent workers and the offline/online
# overlap (see DESIGN.md §12).
race-chunks:
	$(GO) test -race -count=3 -timeout 30m -run 'Chunk' ./internal/relation ./internal/core ./internal/benchmark .

# The backend-equivalence suites under the race detector, repeated:
# every secure-join backend (psi-oep, gc) must produce the results of
# the cost-based default, win its auctions when forced, and keep
# transcripts deterministic and oblivious (see DESIGN.md §13).
race-backends:
	$(GO) test -race -count=3 -timeout 30m -run 'Backend|PlanCosted' ./internal/core ./internal/jointree
	$(GO) test -race -count=3 -timeout 30m ./internal/gcbaseline

# The observability suites under the race detector, repeated: labeled
# metric vecs, the structured event log, the flight recorder, the live
# step-status map, the debug server's graceful shutdown, and the
# fully-observed transcript-neutrality tests (see DESIGN.md §14).
race-obs:
	$(GO) test -race -count=3 -timeout 30m -run 'Obs|Event|Flight|Label|Status|Prom|Shutdown' ./internal/obs ./internal/core .

# The secyand daemon suites under the race detector, repeated: WFQ
# fairness/starvation, typed quota and overload shedding, the
# precompute farm's inventory and cooperative-warm paths, graceful
# drain — all over real TCP — plus the root options model's precedence
# tests (see DESIGN.md §16).
race-daemon:
	$(GO) test -race -count=3 -timeout 30m ./internal/daemon
	$(GO) test -race -count=3 -timeout 30m -run 'QueryUnifiedAPI|OptionPrecedence' .

# The crypto-kernel packages under the race detector, repeated: the
# fixed-key AES hash layer (batched MMO, the 8-wide AESENC kernel, the
# noescape scratch laundering), the IKNP extension that hashes matrix
# rows through it, the slot-parallel garbling kernel whose workers share
# one message buffer (DESIGN.md §7), PSI/cuckoo bin sweeps, and the
# packed bit-matrix plumbing underneath (see DESIGN.md §15).
race-kernels:
	$(GO) test -race -count=3 -timeout 30m ./internal/prf ./internal/bitutil ./internal/ot ./internal/gc ./internal/cuckoo ./internal/psi

# The canonical benchmark (bench/README.md): four workloads, one child
# process each, every result checked against the plaintext engine;
# writes bench/out/result.json. `make bench ARGS='-trace 1'` adds the
# per-layer run. The Go micro-benchmarks stay behind
# `go test -bench . ./internal/...`.
bench:
	$(GO) run ./bench $(ARGS)

# Apply the benchmark's bounds to two result files; exits 1 on any
# metric that got worse: make bench-check BASE=old/result.json NEW=bench/out/result.json
bench-check:
	$(GO) run ./bench -compare $(BASE) $(NEW)

# go vet, plus gofmt: any file gofmt would rewrite fails the target.
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi

# Short fuzz bursts for the transpose involution, the TCP framing
# decoder, the SQL front end (seeded with the TPC-H query strings), the
# chunked scan, both base-OT message decoders, the evaluator's view of
# the garbler's message, the PSI's hint and OPRF-correction decoders and
# a whole OEP against a hostile peer; extend -fuzztime locally for real
# fuzzing sessions.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzTranspose -fuzztime 10s ./internal/bitutil
	$(GO) test -run '^$$' -fuzz FuzzRecvFraming -fuzztime 10s ./internal/transport
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/sqlfront
	$(GO) test -run '^$$' -fuzz FuzzChunkedScan -fuzztime 10s ./internal/relation
	$(GO) test -run '^$$' -fuzz FuzzBaseOTMessages -fuzztime 10s ./internal/ot
	$(GO) test -run '^$$' -fuzz FuzzGarbledMessage -fuzztime 10s ./internal/gc
	$(GO) test -run '^$$' -fuzz FuzzPSIMessages -fuzztime 10s ./internal/psi
	$(GO) test -run '^$$' -fuzz FuzzOEPMessages -fuzztime 10s ./internal/oep
