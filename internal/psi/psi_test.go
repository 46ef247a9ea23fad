package psi

import (
	"errors"
	"math/rand"
	"testing"

	"secyan/internal/cuckoo"
	"secyan/internal/mpc"
	"secyan/internal/prf"
	"secyan/internal/share"
	"secyan/internal/transport"
)

// makeSets builds X and Y with a planted intersection.
func makeSets(rng *rand.Rand, m, n, common int) (xs, ys []uint64) {
	used := map[uint64]bool{}
	fresh := func() uint64 {
		for {
			v := rng.Uint64() & MaxElement
			if !used[v] {
				used[v] = true
				return v
			}
		}
	}
	for i := 0; i < common; i++ {
		v := fresh()
		xs = append(xs, v)
		ys = append(ys, v)
	}
	for len(xs) < m {
		xs = append(xs, fresh())
	}
	for len(ys) < n {
		ys = append(ys, fresh())
	}
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	rng.Shuffle(len(ys), func(i, j int) { ys[i], ys[j] = ys[j], ys[i] })
	return xs, ys
}

func checkPSIResult(t *testing.T, ring share.Ring, xs, ys, payloads []uint64, ra, rb *Result) {
	t.Helper()
	want := map[uint64]uint64{} // element -> expected payload sum
	inY := map[uint64]bool{}
	for j, y := range ys {
		inY[y] = true
		want[y] += payloads[j]
	}
	table := ra.Table
	matched := 0
	for b := 0; b < ra.Params.B; b++ {
		ind := ring.Combine(ra.IndShares[b], rb.IndShares[b])
		pay := ring.Combine(ra.PayShares[b], rb.PayShares[b])
		if v, ok := table.BinItem(b); ok {
			if inY[v] {
				matched++
				if ind != 1 {
					t.Errorf("bin %d (item %d ∈ Y): ind = %d", b, v, ind)
				}
				if pay != ring.Mask(want[v]) {
					t.Errorf("bin %d (item %d): pay = %d, want %d", b, v, pay, want[v])
				}
			} else {
				if ind != 0 || pay != 0 {
					t.Errorf("bin %d (item %d ∉ Y): ind=%d pay=%d", b, v, ind, pay)
				}
			}
		} else if ind != 0 || pay != 0 {
			t.Errorf("empty bin %d: ind=%d pay=%d", b, ind, pay)
		}
	}
	wantMatched := 0
	for _, x := range xs {
		if inY[x] {
			wantMatched++
		}
	}
	if matched != wantMatched {
		t.Errorf("matched %d bins, want %d", matched, wantMatched)
	}
}

func TestPSIPlainPayloads(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ring := share.Ring{Bits: 32}
	for _, tc := range []struct{ m, n, common int }{
		{1, 1, 1}, {1, 1, 0}, {10, 10, 5}, {30, 20, 7}, {5, 40, 3}, {40, 5, 2},
	} {
		xs, ys := makeSets(rng, tc.m, tc.n, tc.common)
		payloads := make([]uint64, len(ys))
		for i := range payloads {
			payloads[i] = uint64(rng.Intn(1 << 20))
		}
		alice, bob := mpc.Pair(ring)
		ra, rb, err := mpc.Run2PC(alice, bob,
			func(p *mpc.Party) (*Result, error) { return RunReceiver(p, xs, len(ys)) },
			func(p *mpc.Party) (*Result, error) { return RunSender(p, ys, payloads, len(xs)) },
		)
		alice.Conn.Close()
		bob.Conn.Close()
		if err != nil {
			t.Fatalf("case %+v: %v", tc, err)
		}
		checkPSIResult(t, ring, xs, ys, payloads, ra, rb)
	}
}

// TestPSIDuplicateSenderElementsSumPayloads: a receiver element matching
// several sender copies gets the sum of their payloads, adjacent or not
// and wrapping the ring, while an unmatched sender element and an
// unmatched receiver element stay 0.
func TestPSIDuplicateSenderElementsSumPayloads(t *testing.T) {
	ring := share.Ring{Bits: 32}
	xs := []uint64{100, 200}
	for _, tc := range []struct{ ys, payloads []uint64 }{
		{[]uint64{100, 100, 300}, []uint64{5, 7, 9}},
		{[]uint64{100, 300, 100, 100}, []uint64{5, 9, 7, 1 << 31}},
	} {
		alice, bob := mpc.Pair(ring)
		ra, rb, err := mpc.Run2PC(alice, bob,
			func(p *mpc.Party) (*Result, error) { return RunReceiver(p, xs, len(tc.ys)) },
			func(p *mpc.Party) (*Result, error) { return RunSender(p, tc.ys, tc.payloads, len(xs)) },
		)
		alice.Conn.Close()
		bob.Conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		checkPSIResult(t, ring, xs, tc.ys, tc.payloads, ra, rb)
	}
}

func TestPSISharedPayloads(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ring := share.Ring{Bits: 32}
	for _, tc := range []struct{ m, n, common int }{
		{1, 1, 1}, {8, 8, 4}, {20, 30, 11}, {30, 6, 6},
	} {
		xs, ys := makeSets(rng, tc.m, tc.n, tc.common)
		payloads := make([]uint64, len(ys))
		payA := make([]uint64, len(ys))
		payB := make([]uint64, len(ys))
		g := rand.New(rand.NewSource(77))
		for i := range payloads {
			payloads[i] = uint64(rng.Intn(1 << 20))
			payA[i] = ring.Mask(g.Uint64())
			payB[i] = ring.Sub(payloads[i], payA[i])
		}
		alice, bob := mpc.Pair(ring)
		ra, rb, err := mpc.Run2PC(alice, bob,
			func(p *mpc.Party) (*Result, error) {
				return RunSharedPayloadReceiver(p, xs, len(ys), payA)
			},
			func(p *mpc.Party) (*Result, error) {
				return RunSharedPayloadSender(p, ys, payB, len(xs))
			},
		)
		alice.Conn.Close()
		bob.Conn.Close()
		if err != nil {
			t.Fatalf("case %+v: %v", tc, err)
		}
		checkPSIResult(t, ring, xs, ys, payloads, ra, rb)
	}
}

func TestComposeRejectsHugeElements(t *testing.T) {
	if _, err := Compose(MaxElement, 2); err != nil {
		t.Fatal("MaxElement must be accepted")
	}
	if _, err := Compose(MaxElement+1, 0); err == nil {
		t.Fatal("expected domain error")
	}
}

func TestParamsPublicAndMonotone(t *testing.T) {
	p1 := NewParams(100, 50)
	p2 := NewParams(100, 50)
	if p1 != p2 {
		t.Fatal("params must be deterministic")
	}
	if p1.B != 127 {
		t.Fatalf("B = %d, want 127", p1.B)
	}
	if NewParams(100, 500).hint(32).bytes() <= p1.hint(32).bytes() {
		t.Fatal("the hint must grow with the sender set")
	}
}

func TestPSIValidation(t *testing.T) {
	ring := share.Ring{Bits: 32}
	alice, bob := mpc.Pair(ring)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	if _, err := RunSender(bob, []uint64{1, 2}, []uint64{1}, 5); err == nil {
		t.Error("payload length mismatch accepted")
	}
	if _, err := RunSharedPayloadSender(bob, []uint64{1}, nil, 5); err == nil {
		t.Error("share length mismatch accepted")
	}
	if _, err := RunSharedPayloadReceiver(alice, []uint64{1}, 3, nil); err == nil {
		t.Error("receiver share length mismatch accepted")
	}
	// The shared-payload sender cannot merge what it only holds shares of:
	// duplicates are refused before any traffic.
	before := bob.Conn.Stats()
	if _, err := RunSharedPayloadSender(bob, []uint64{100, 300, 100}, []uint64{5, 9, 7}, 2); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("shared-payload sender with duplicates: %v, want ErrDuplicateKey", err)
	}
	if bob.Conn.Stats() != before {
		t.Error("the duplicate check ran after traffic")
	}
}

func TestIdxWidth(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := idxWidth(n); got != want {
			t.Errorf("idxWidth(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestHintRoundTrip programs one store of n keys and decodes it: each
// programmed key must decode to its value, whatever the free slots drew,
// and an unprogrammed key to a value within the slot widths, from the
// empty store (its W slots alone) to 2^16 keys, at every payload width.
func TestHintRoundTrip(t *testing.T) {
	g := prf.NewPRG(prf.Seed{7})
	for _, n := range []int{0, 1, 54, 2160, 1 << 16} {
		for _, w := range []int{1, 10, 32, 64} {
			pr := Params{N: n / 3, B: 1 << 20}
			h := hintDims{slots: okvsSlots(n, bandBits), band: bandBits, tau: pr.tau(), width: w}
			if n%3 == 0 && pr.hint(w) != h {
				t.Fatalf("n=%d: hint dims %+v, want %+v", n, pr.hint(w), h)
			}
			if h.slots != n+(n+3)/4+128 || h.tau != Sigma+20 {
				t.Fatalf("n=%d: hint dims %+v", n, h)
			}
			keys, vals := make([]uint64, n), make([]value, n)
			for i := range keys {
				keys[i] = uint64(i)<<2 | uint64(i%3) // distinct composed keys
				vals[i] = h.mask(value{g.Uint64(), g.Uint64()})
			}
			seed := g.Seed()
			hint, err := encodeKeys(h, seed, keys, vals, g)
			if err != nil {
				t.Fatalf("n=%d w=%d: %v", n, w, err)
			}
			for i, k := range keys {
				if got := h.decode(hint, seed, k); got != vals[i] {
					t.Fatalf("n=%d w=%d: key %d decodes to %+v, programmed %+v", n, w, i, got, vals[i])
				}
			}
			if v := h.decode(hint, seed, receiverDummyKey); v != h.mask(v) {
				t.Fatalf("n=%d w=%d: decoded value %+v exceeds the slot widths", n, w, v)
			}
		}
	}
}

// TestHintRejectsEqualKeys pins why the senders merge or refuse
// duplicates: one key programmed twice is a rank-deficient system.
func TestHintRejectsEqualKeys(t *testing.T) {
	h := Params{N: 3, B: 4}.hint(32)
	if _, err := encodeKeys(h, prf.Seed{1}, []uint64{4, 8, 8}, []value{{1, 2}, {3, 4}, {5, 6}}, prf.NewPRG(prf.Seed{2})); err == nil {
		t.Fatal("a key programmed twice was accepted")
	}
}

// TestSkewedSenderSetIntersects runs a sender set whose every element
// the first hash function puts into one receiver bin under the seed the
// receiver is about to draw. The hint is sized by the number of keys
// alone, with no per-bin capacity, so the PSI must run and intersect
// correctly however the sender's keys fall into bins.
func TestSkewedSenderSetIntersects(t *testing.T) {
	ring := share.Ring{Bits: 32}
	const m, n = 100, 40
	alice, bob := mpc.Pair(ring)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	// cuckoo.Build draws the table's seed first from the receiver's PRG.
	probe := *alice.PRG
	seed := probe.Seed()
	b := NewParams(m, n).B
	rng := rand.New(rand.NewSource(5))
	var ys []uint64
	for len(ys) < n {
		if y := rng.Uint64() & MaxElement; cuckoo.BinOf(seed, b, y, 0) == 0 {
			ys = append(ys, y)
		}
	}
	xs := append([]uint64(nil), ys[:10]...)
	for len(xs) < m {
		xs = append(xs, rng.Uint64()&MaxElement)
	}
	payloads := make([]uint64, n)
	for i := range payloads {
		payloads[i] = uint64(rng.Intn(1 << 20))
	}
	ra, rb, err := mpc.Run2PC(alice, bob,
		func(p *mpc.Party) (*Result, error) { return RunReceiver(p, xs, n) },
		func(p *mpc.Party) (*Result, error) { return RunSender(p, ys, payloads, m) })
	if err != nil {
		t.Fatal(err)
	}
	if ra.Table.Seed != seed {
		t.Fatal("the receiver drew a different cuckoo seed; the sender set is no longer skewed")
	}
	checkPSIResult(t, ring, xs, ys, payloads, ra, rb)
}

// TestReceiverDummyBinsNeverMatch runs receiver sets that leave most of
// the table empty — M = 1 in B = 4 bins — against senders holding the
// whole candidate range: the dummy bins must come out as shares of
// (0, 0) in both PSIs, since no composed key carries the dummy's tag.
func TestReceiverDummyBinsNeverMatch(t *testing.T) {
	for which := 0; which < 3; which++ {
		if k, _ := Compose(MaxElement, which); k == receiverDummyKey {
			t.Fatalf("Compose(MaxElement, %d) is the receiver's dummy key", which)
		}
	}
	ring := share.Ring{Bits: 32}
	ys := []uint64{MaxElement, MaxElement - 1, 0, 1, 2, 3}
	payloads := []uint64{11, 12, 13, 14, 15, 16}
	zeros := make([]uint64, len(ys))
	type half func(p *mpc.Party) (*Result, error)
	for seed := uint64(0); seed < 8; seed++ {
		xs := []uint64{seed % 5} // in ys for seed%5 < 4
		for name, run := range map[string][2]half{
			"direct": {func(p *mpc.Party) (*Result, error) { return RunReceiver(p, xs, len(ys)) },
				func(p *mpc.Party) (*Result, error) { return RunSender(p, ys, payloads, 1) }},
			"indexed": {func(p *mpc.Party) (*Result, error) { return RunSharedPayloadReceiver(p, xs, len(ys), zeros) },
				func(p *mpc.Party) (*Result, error) { return RunSharedPayloadSender(p, ys, payloads, 1) }},
		} {
			alice, bob := mpc.Pair(ring)
			ra, rb, err := mpc.Run2PC(alice, bob, run[0], run[1])
			alice.Conn.Close()
			bob.Conn.Close()
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if ra.Params.B != 4 {
				t.Fatalf("B = %d, want 4", ra.Params.B)
			}
			checkPSIResult(t, ring, xs, ys, payloads, ra, rb)
		}
	}
}

// TestBinSharesCombine pins what Result means per bin — the contract the
// semijoin operators and the benchmark's PSI probe read: IndShares
// combine to 1 and PayShares to the matched payload on a bin whose item
// the sender holds, and both to 0 on a bin whose item he lacks and on a
// dummy (empty) bin. Both PSIs run at ring widths 32 and 64 (the
// widest select word, w + ℓ + 1 = 129 bits on the direct path) over sets
// that leave all three kinds of bin in the table.
func TestBinSharesCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	type half func(p *mpc.Party) (*Result, error)
	for _, bits := range []int{32, 64} {
		ring := share.Ring{Bits: bits}
		xs, ys := makeSets(rng, 9, 14, 4)
		payloads := make([]uint64, len(ys))
		payA, payB := make([]uint64, len(ys)), make([]uint64, len(ys))
		for i := range payloads {
			payloads[i] = ring.Mask(rng.Uint64())
			payA[i] = ring.Mask(rng.Uint64())
			payB[i] = ring.Sub(payloads[i], payA[i])
		}
		for name, run := range map[string][2]half{
			"direct": {func(p *mpc.Party) (*Result, error) { return RunReceiver(p, xs, len(ys)) },
				func(p *mpc.Party) (*Result, error) { return RunSender(p, ys, payloads, len(xs)) }},
			"indexed": {func(p *mpc.Party) (*Result, error) { return RunSharedPayloadReceiver(p, xs, len(ys), payA) },
				func(p *mpc.Party) (*Result, error) { return RunSharedPayloadSender(p, ys, payB, len(xs)) }},
		} {
			alice, bob := mpc.Pair(ring)
			ra, rb, err := mpc.Run2PC(alice, bob, run[0], run[1])
			alice.Conn.Close()
			bob.Conn.Close()
			if err != nil {
				t.Fatalf("%s ℓ=%d: %v", name, bits, err)
			}
			checkPSIResult(t, ring, xs, ys, payloads, ra, rb)
			inY := map[uint64]bool{}
			for _, y := range ys {
				inY[y] = true
			}
			var kinds [3]int // matching, non-matching, dummy
			for b := 0; b < ra.Params.B; b++ {
				switch v, ok := ra.Table.BinItem(b); {
				case !ok:
					kinds[2]++
				case inY[v]:
					kinds[0]++
				default:
					kinds[1]++
				}
			}
			if kinds[0] == 0 || kinds[1] == 0 || kinds[2] == 0 {
				t.Fatalf("%s ℓ=%d: bins (matching, non-matching, dummy) = %v; the test needs all three", name, bits, kinds)
			}
		}
	}
}

// TestTranscriptDependsOnSizesOnly is the PSI's obliviousness check: for
// fixed public (M, N) the bytes, messages and rounds of both PSIs are
// the same whether the sets are disjoint, identical, or — where the
// sender may hold them — full of duplicates.
func TestTranscriptDependsOnSizesOnly(t *testing.T) {
	ring := share.Ring{Bits: 32}
	const m, n = 12, 20
	rng := rand.New(rand.NewSource(3))
	type input struct{ xs, ys []uint64 }
	var inputs []input
	for _, common := range []int{0, 5, m} {
		xs, ys := makeSets(rng, m, n, common)
		inputs = append(inputs, input{xs, ys})
	}
	dup := input{inputs[1].xs, append([]uint64(nil), inputs[1].ys...)}
	for i := range dup.ys {
		dup.ys[i] = dup.ys[i%3]
	}
	payloads := make([]uint64, n)
	for i := range payloads {
		payloads[i] = rng.Uint64()
	}
	type half func(p *mpc.Party, in input) (*Result, error)
	for name, v := range map[string]struct {
		recv, send half
		dups       bool
	}{
		"direct": {func(p *mpc.Party, in input) (*Result, error) { return RunReceiver(p, in.xs, n) },
			func(p *mpc.Party, in input) (*Result, error) { return RunSender(p, in.ys, payloads, m) }, true},
		"indexed": {func(p *mpc.Party, in input) (*Result, error) {
			return RunSharedPayloadReceiver(p, in.xs, n, payloads)
		},
			func(p *mpc.Party, in input) (*Result, error) { return RunSharedPayloadSender(p, in.ys, payloads, m) }, false},
	} {
		ins := inputs
		if v.dups {
			ins = append(ins[:len(ins):len(ins)], dup)
		}
		var want transport.Stats
		for i, in := range ins {
			alice, bob := mpc.Pair(ring)
			warmOT(t, alice, bob)
			before := alice.Conn.Stats()
			_, _, err := mpc.Run2PC(alice, bob,
				func(p *mpc.Party) (*Result, error) { return v.recv(p, in) },
				func(p *mpc.Party) (*Result, error) { return v.send(p, in) })
			after := alice.Conn.Stats()
			got := transport.Stats{
				BytesSent:     after.BytesSent - before.BytesSent,
				BytesReceived: after.BytesReceived - before.BytesReceived,
				MessagesSent:  after.MessagesSent - before.MessagesSent,
				MessagesRecv:  after.MessagesRecv - before.MessagesRecv,
				Rounds:        after.Rounds - before.Rounds,
			}
			alice.Conn.Close()
			bob.Conn.Close()
			if err != nil {
				t.Fatalf("%s input %d: %v", name, i, err)
			}
			if i == 0 {
				want = got
			} else if got != want {
				t.Fatalf("%s: transcript shape depends on the data: input %d %+v, input 0 %+v", name, i, got, want)
			}
		}
	}
}
