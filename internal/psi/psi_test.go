package psi

import (
	"errors"
	"math/bits"
	"math/rand"
	"testing"

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

func TestPSIDuplicateSenderElementsSumPayloads(t *testing.T) {
	ring := share.Ring{Bits: 32}
	xs := []uint64{100, 200}
	ys := []uint64{100, 100, 300}
	payloads := []uint64{5, 7, 9}
	alice, bob := mpc.Pair(ring)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	ra, rb, err := mpc.Run2PC(alice, bob,
		func(p *mpc.Party) (*Result, error) { return RunReceiver(p, xs, len(ys)) },
		func(p *mpc.Party) (*Result, error) { return RunSender(p, ys, payloads, len(xs)) },
	)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < ra.Params.B; b++ {
		if v, ok := ra.Table.BinItem(b); ok && v == 100 {
			pay := ring.Combine(ra.PayShares[b], rb.PayShares[b])
			if pay != 12 {
				t.Fatalf("duplicate payloads: got %d, want 12", pay)
			}
		}
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
	if NewParams(100, 500).L < p1.L {
		t.Fatal("L must grow with the sender set")
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
}

func TestIdxWidth(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := idxWidth(n); got != want {
			t.Errorf("idxWidth(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestHintRoundTrip programs one bin at every load 0…L and decodes it:
// each programmed key must decode to its value, whatever the free slots
// drew, at hint shapes from the smallest table (B = 4) up to a wide
// multi-word row.
func TestHintRoundTrip(t *testing.T) {
	g := prf.NewPRG(prf.Seed{7})
	for _, pr := range []Params{{B: 4, L: 1}, {B: 4, L: 9}, {B: 229, L: 44}, {B: 1 << 20, L: 130}} {
		for _, w := range []int{1, 10, 32, 64} {
			h := pr.hint(w)
			if h.slots != pr.L+pr.tau() || h.tau != Sigma+bits.Len(uint(pr.B-1)) {
				t.Fatalf("%+v: hint dims %+v", pr, h)
			}
			coder := newHintCoder(h, g.Seed(), pr.L)
			bin := make([]byte, h.binBytes())
			for load := 0; load <= pr.L; load++ {
				keys, vals := make([]uint64, load), make([]value, load)
				for i := range keys {
					keys[i] = uint64(i)<<2 | uint64(i%3) // distinct composed keys
					vals[i] = h.mask(value{g.Uint64(), g.Uint64()})
				}
				if err := coder.encode(bin, keys, vals, g); err != nil {
					t.Fatalf("%+v w=%d load=%d: %v", pr, w, load, err)
				}
				for i, k := range keys {
					if got := coder.decode(bin, k); got != vals[i] {
						t.Fatalf("%+v w=%d load=%d: key %d decodes to %+v, programmed %+v", pr, w, load, i, got, vals[i])
					}
				}
				if v := coder.decode(bin, receiverDummyKey); v != h.mask(v) {
					t.Fatalf("%+v w=%d: decoded value %+v exceeds the slot widths", pr, w, v)
				}
			}
		}
	}
}

// TestHintRejectsEqualKeys pins why the senders merge or refuse
// duplicates: one key programmed twice is a rank-deficient system.
func TestHintRejectsEqualKeys(t *testing.T) {
	h := Params{B: 4, L: 3}.hint(32)
	coder := newHintCoder(h, prf.Seed{1}, 3)
	err := coder.encode(make([]byte, h.binBytes()), []uint64{8, 8}, []value{{1, 2}, {3, 4}}, prf.NewPRG(prf.Seed{2}))
	if err == nil {
		t.Fatal("a key programmed twice was accepted")
	}
}

// TestReceiverDummyBinsNeverMatch runs receiver sets that leave most of
// the table empty — M = 1 in B = 4 bins — against senders holding the
// whole candidate range: the dummy bins must come out as shares of
// (0, 0) in every variant, since no composed key carries the dummy's tag.
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
			"indexed-plain": {func(p *mpc.Party) (*Result, error) { return RunIndexedPlainReceiver(p, xs, len(ys)) },
				func(p *mpc.Party) (*Result, error) { return RunIndexedPlainSender(p, ys, payloads, 1) }},
			"indexed-shared": {func(p *mpc.Party) (*Result, error) { return RunSharedPayloadReceiver(p, xs, len(ys), zeros) },
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

// TestTranscriptDependsOnSizesOnly is the PSI's obliviousness check: for
// fixed public (M, N) the bytes, messages and rounds of every variant are
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
		"indexed-plain": {func(p *mpc.Party, in input) (*Result, error) { return RunIndexedPlainReceiver(p, in.xs, n) },
			func(p *mpc.Party, in input) (*Result, error) { return RunIndexedPlainSender(p, in.ys, payloads, m) }, true},
		"indexed-shared": {func(p *mpc.Party, in input) (*Result, error) {
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
			alice.Conn.ResetStats()
			bob.Conn.ResetStats()
			_, _, err := mpc.Run2PC(alice, bob,
				func(p *mpc.Party) (*Result, error) { return v.recv(p, in) },
				func(p *mpc.Party) (*Result, error) { return v.send(p, in) })
			got := alice.Conn.Stats()
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

// TestIndexedPlainDuplicatesSumPayloads is the §5.5 twin of
// TestPSIDuplicateSenderElementsSumPayloads, and the shared-payload
// sender — who cannot merge what it only holds shares of — must refuse
// duplicates with ErrDuplicateKey before any traffic.
func TestIndexedPlainDuplicatesSumPayloads(t *testing.T) {
	ring := share.Ring{Bits: 32}
	xs := []uint64{100, 200}
	ys := []uint64{100, 300, 100, 100}
	payloads := []uint64{5, 9, 7, 1 << 31}
	alice, bob := mpc.Pair(ring)
	defer alice.Conn.Close()
	defer bob.Conn.Close()
	ra, rb, err := mpc.Run2PC(alice, bob,
		func(p *mpc.Party) (*Result, error) { return RunIndexedPlainReceiver(p, xs, len(ys)) },
		func(p *mpc.Party) (*Result, error) { return RunIndexedPlainSender(p, ys, payloads, len(xs)) },
	)
	if err != nil {
		t.Fatal(err)
	}
	checkPSIResult(t, ring, xs, ys, payloads, ra, rb)

	before := bob.Conn.Stats()
	_, err = RunSharedPayloadSender(bob, ys, payloads, len(xs))
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("shared-payload sender with duplicates: %v, want ErrDuplicateKey", err)
	}
	if bob.Conn.Stats() != before {
		t.Fatal("the duplicate check ran after traffic")
	}
}
