# Developer and CI entry points. The heavy TPC-H secure-protocol tests
# are gated behind testing.Short(), so `make race` stays fast while
# `make test` runs the full tier-1 suite.

GO ?= go

.PHONY: all test short race race-sessions race-obs race-kernels race-daemon bench bench-check vet loc examples fuzz

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
# credits, heartbeats, released and unopened stream records, fault
# injection, and the concurrent-session transcript-equivalence tests.
race-sessions:
	$(GO) test -race -count=3 -timeout 30m -run 'Mux|Fault|Session' ./internal/transport ./internal/mpc ./internal/core .

# The observability suites under the race detector, repeated: all of
# internal/obs (metric families, the goroutine-to-track binding map,
# kernel spans, the event log, the flight recorder, the live step
# status, the debug server), then the executor's and the root's
# fully-observed transcript-neutrality and Chrome-trace tests (see
# DESIGN.md §12).
race-obs:
	$(GO) test -race -count=3 -timeout 30m ./internal/obs
	$(GO) test -race -count=3 -timeout 30m -run 'Obs|Event|Flight|Label|Status|Prom|Shutdown|Chrome' ./internal/core .

# The secyand daemon suites under the race detector, repeated: WFQ
# fairness/starvation, typed quota and overload shedding,
# cancel-on-disconnect, the precompute farm's warm pass, graceful drain
# — all over real TCP — the scheduler's refill timer, per-tenant
# concurrency and FIFO release without TCP, plus the root options
# model's precedence tests (see DESIGN.md §11).
race-daemon:
	$(GO) test -race -count=3 -timeout 30m ./internal/daemon
	$(GO) test -race -count=3 -timeout 30m -run 'QueryUnifiedAPI|OptionPrecedence' .

# The crypto-kernel packages under the race detector, repeated: the
# fixed-key AES hash layer (batched MMO, the 8-wide AESENC kernel, the
# noescape scratch laundering), the keyed AES-CTR keystream that runs the
# same kernel under per-column round keys (prf.CTR), the OT-extension
# kernel whose column workers expand into one shared buffer and whose
# block workers hash rows straight out of 64×64 transpose blocks — IKNP
# through the MMO layer, its derived second direction, and KKRT at 512
# columns, the sender deriving Q in the received matrix (the TestKKRT*
# tests of internal/ot, the PSIs above them) — the slot-parallel
# garbling kernel whose workers share one message buffer (DESIGN.md §4),
# PSI/cuckoo bin sweeps, the reference bit-matrix transpose underneath (see
# DESIGN.md §13), and the pipe, whose messages cross goroutines without
# a copy (Conn.Send takes ownership), with the OEP and its switching
# networks that send over it.
#
# -skip 'FailureRate$' leaves out psi's TestOKVSFailureRate and
# cuckoo's TestCuckooFailureRate: seeded statistical fits that start no
# goroutine, so the race detector has nothing to find in them. Repeated
# three times under -race they took most of the job: on a 2-vCPU host
# the target ran 512 s with them and 140 s without. `make test` still
# runs each of them once.
race-kernels:
	$(GO) test -race -count=3 -timeout 30m -skip 'FailureRate$$' ./internal/prf ./internal/bitutil ./internal/ot ./internal/gc ./internal/cuckoo ./internal/psi ./internal/transport ./internal/oep ./internal/permnet

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

# The code size ROADMAP.md and CHANGES.md quote: non-test Go lines
# outside bench/.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

# Run every example program. Each exits non-zero when its secure result
# differs from the values it prints as expected; dp_count's count is
# noisy by design, so there only the exit status counts.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

# Short fuzz bursts for the transpose involution, the keyed AES-CTR
# keystream at any offset and length against crypto/cipher, the fused MMO
# kernel on any blocks, tweak, step and word against the per-block
# crypto/aes path, the TCP framing
# decoder, arbitrary frame sequences into one mux endpoint, the SQL
# front end (seeded with the TPC-H query strings), the
# sorted view by permutation, both base-OT message decoders and the
# derived direction's and the KKRT setup's correction matrices, the
# extension receiver's GGM corrections at any length and content, a KKRT
# batch on any code words (Eval agrees with the receiver) and its
# correction matrix at any length, a product batch's packed reply at any
# length and content, direct and pooled, the
# evaluator's view of the garbler's message (keyed payloads and selects
# included) and both sides of the label OT (corrections, label shifts,
# derandomization bits), the PSI's hint and KKRT-matrix decoders and
# both halves of its ρ-OT (opening, direct and pooled, and
# corrections), the PSI's OKVS (encode at any distinct keys, values and
# widths, decode each back, refuse a hint of the wrong length), a whole OEP, direct and pooled, against a
# hostile peer, an AS-Waksman network of any size routing any
# permutation, and the daemon's control line (any bytes, also as the
# hello); extend -fuzztime locally for real fuzzing sessions.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzTranspose -fuzztime 10s ./internal/bitutil
	$(GO) test -run '^$$' -fuzz FuzzKeyStream -fuzztime 10s ./internal/prf
	$(GO) test -run '^$$' -fuzz FuzzHashBlocks -fuzztime 10s ./internal/prf
	$(GO) test -run '^$$' -fuzz FuzzRecvFraming -fuzztime 10s ./internal/transport
	$(GO) test -run '^$$' -fuzz FuzzMuxFrames -fuzztime 10s ./internal/transport
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/sqlfront
	$(GO) test -run '^$$' -fuzz FuzzSortPermWalk -fuzztime 10s ./internal/relation
	$(GO) test -run '^$$' -fuzz FuzzBaseOTMessages -fuzztime 10s ./internal/ot
	$(GO) test -run '^$$' -fuzz FuzzSoftSpokenSetup -fuzztime 10s ./internal/ot
	$(GO) test -run '^$$' -fuzz FuzzKKRT -fuzztime 10s ./internal/ot
	$(GO) test -run '^$$' -fuzz FuzzProductReply -fuzztime 10s ./internal/ot
	$(GO) test -run '^$$' -fuzz FuzzGarbledMessage -fuzztime 10s ./internal/gc
	$(GO) test -run '^$$' -fuzz FuzzPSIMessages -fuzztime 10s ./internal/psi
	$(GO) test -run '^$$' -fuzz FuzzOKVS -fuzztime 10s ./internal/psi
	$(GO) test -run '^$$' -fuzz FuzzOEPMessages -fuzztime 10s ./internal/oep
	$(GO) test -run '^$$' -fuzz FuzzRoute -fuzztime 10s ./internal/permnet
	$(GO) test -run '^$$' -fuzz FuzzControlMessage -fuzztime 10s ./internal/daemon
