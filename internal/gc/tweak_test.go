package gc

import (
	"math/rand"
	"testing"

	"secyan/internal/ot"
	"secyan/internal/prf"
	"secyan/internal/transport"
)

// otPair sets up one OT-extension direction over an in-memory pipe,
// whose ends it returns too.
func otPair(t *testing.T) (*ot.Sender, *ot.Receiver, transport.Conn, transport.Conn) {
	t.Helper()
	a, b := transport.Pair()
	t.Cleanup(func() { a.Close(); b.Close() })
	type res struct {
		s   *ot.Sender
		err error
	}
	ch := make(chan res, 1)
	go func() { s, err := ot.NewSender(a); ch <- res{s, err} }()
	rcv, err := ot.NewReceiver(b)
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.s, rcv, a, b
}

// openDelta opens one direct label batch of nE Δ-OTs on the choices.
func openDelta(t *testing.T, snd *ot.Sender, rcv *ot.Receiver, choices []bool) *ot.DeltaBatch {
	t.Helper()
	ch := make(chan error, 1)
	var b *ot.DeltaBatch
	go func() { var err error; b, err = snd.BeginDelta(len(choices)); ch <- err }()
	if _, _, err := rcv.ReceiveDelta(choices); err != nil {
		t.Fatal(err)
	}
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
	return b
}

// checkDisjointGarblings garbles c under both keys, which share Δ, with
// the same garbling randomness and the same zero labels q — the worst
// case under a shared Δ — and fails unless every AND's
// half-ciphertexts, the control bits, every ANDG ciphertext and every
// payload ciphertext differ between the two.
func checkDisjointGarblings(t *testing.T, c *Circuit, keys [2]circuitKey, q []prf.Block, priv []bool) {
	t.Helper()
	var gbs [2]*garbled
	for i, k := range keys {
		gbs[i] = garble(c, k, prf.NewPRG(prf.Seed{46}), priv, false, append([]prf.Block(nil), q...))
	}
	labelsOff, _, payOff, _ := c.msgLayout()
	ctlOff, andgOff, _ := tableLayout(c.Slots*c.NumAnd, c.Slots*c.NumAndG)
	same := func(lo, hi int) bool { return string(gbs[0].msg[lo:hi]) == string(gbs[1].msg[lo:hi]) }
	for q := 0; q < c.Slots*c.NumAnd; q++ {
		if same(24*q, 24*q+24) {
			t.Fatalf("AND %d's half-ciphertexts are the same in both circuits", q)
		}
	}
	if same(ctlOff, andgOff) {
		t.Fatal("the control bits are the same in both circuits")
	}
	for off := andgOff; off < labelsOff; off += 16 {
		if same(off, off+16) {
			t.Fatalf("ANDG ciphertext %d is the same in both circuits", (off-andgOff)/16)
		}
	}
	off := 0
	for j := range c.Payloads {
		n := c.Payloads[j].bytes()
		if same(payOff+off, payOff+off+n) {
			t.Fatalf("payload %d's ciphertext is the same in both circuits", j)
		}
		off += n
	}
}

// TestCircuitsUnderOneDeltaUseDisjointTweaks opens two label batches on
// one sender — one direct, one pooled — and garbles one circuit over
// each under the key the protocol derives from it (keyOver). The keys
// share the sender's Δ, so only the tweaks can tell two circuits apart:
// their gate-tweak and payload-tweak ranges must be disjoint, and with
// the same garbling randomness and the same zero labels — the worst case
// under a shared Δ — no AND's half-ciphertexts, no ANDG ciphertext and no
// payload ciphertext of one garbling may equal its counterpart in the
// other, nor may the control bits. Dropping the serial from the tweaks
// makes both garblings byte-identical.
func TestCircuitsUnderOneDeltaUseDisjointTweaks(t *testing.T) {
	snd, rcv, _, _ := otPair(t)
	c := correctionCircuit()
	nE := c.Slots * len(c.EvalInputs)
	rng := rand.New(rand.NewSource(46))
	choices := randBits(rng, nE)

	var batches []*ot.DeltaBatch
	for _, pooled := range []bool{false, true} {
		ch := make(chan error, 1)
		if pooled {
			go func() { _, err := snd.FillDelta(nE); ch <- err }()
			if err := rcv.FillDelta(nE); err != nil {
				t.Fatal(err)
			}
			if err := <-ch; err != nil {
				t.Fatal(err)
			}
		}
		batches = append(batches, openDelta(t, snd, rcv, choices))
	}

	var keys [2]circuitKey
	for i, b := range batches {
		var err error
		if keys[i], err = keyOver(c, snd, b); err != nil {
			t.Fatal(err)
		}
	}
	if keys[0].delta != keys[1].delta || keys[0].delta != snd.Delta() {
		t.Fatal("the two circuits are not garbled under the sender's Δ")
	}
	gates := func(k circuitKey) (lo, hi uint64) { return k.base, k.base + uint64(c.Slots*c.slotTweaks()) }
	pays := func(k circuitKey) (lo, hi uint64) {
		return c.payTweak(k.base, 0, 0), c.payTweak(k.base, 0, 0) + uint64(c.Slots*len(c.Payloads))
	}
	for _, r := range []func(circuitKey) (uint64, uint64){gates, pays} {
		lo0, hi0 := r(keys[0])
		lo1, hi1 := r(keys[1])
		if lo0 < hi1 && lo1 < hi0 {
			t.Fatalf("tweak ranges [%#x, %#x) and [%#x, %#x) overlap", lo0, hi0, lo1, hi1)
		}
	}

	q := make([]prf.Block, nE)
	for j := range q {
		rng.Read(q[j][:])
	}
	checkDisjointGarblings(t, c, keys, q, randBits(rng, c.Slots*c.NumPrivate))
}

// TestSessionStreamsGarbleUnderDisjointTweaks: two streams of one
// session share their root's Δ and each counts its label batches from
// serial 0, so their first circuits get the same tweak base; the stream
// word (ot.Sender.Word), the high word of every gate and payload tweak,
// must still tell them apart. Garbled over the first batch of each
// stream, with the same randomness and zero labels, no ciphertext of
// one may equal its counterpart in the other. Dropping the word from
// keyOver makes both garblings byte-identical.
func TestSessionStreamsGarbleUnderDisjointTweaks(t *testing.T) {
	snd, rcv, a, b := otPair(t)
	c := correctionCircuit()
	nE := c.Slots * len(c.EvalInputs)
	rng := rand.New(rand.NewSource(47))
	choices := randBits(rng, nE)
	var keys [2]circuitKey
	for i, id := range []uint32{1, 2} {
		s := snd.Stream(a, id)
		batch := openDelta(t, s, rcv.Stream(b, id), choices)
		var err error
		if keys[i], err = keyOver(c, s, batch); err != nil {
			t.Fatal(err)
		}
	}
	if keys[0].delta != keys[1].delta || keys[0].base != keys[1].base {
		t.Fatal("two streams' first circuits should share Δ and tweak base")
	}
	q := make([]prf.Block, nE)
	for j := range q {
		rng.Read(q[j][:])
	}
	checkDisjointGarblings(t, c, keys, q, randBits(rng, c.Slots*c.NumPrivate))
}

// TestTweakDomainsAreDisjoint pins the tweak layout at its extremes: the
// last gate tweak of the last serial stays in prf.SiteGC below SitePay,
// the last payload tweak in SitePay, and neither reaches prf.SiteOT, the
// OT pads' domain; one serial more is refused.
func TestTweakDomainsAreDisjoint(t *testing.T) {
	c := correctionCircuit()
	last := uint64(1)<<(61-tweakBits) - 1
	base, err := c.tweakBase(last)
	if err != nil {
		t.Fatal(err)
	}
	gate := base + 1<<tweakBits - 1
	pay := c.payTweak(base, 0, 0) + 1<<tweakBits - 1
	if gate >= prf.SitePay || pay < prf.SitePay || pay >= prf.SiteOT {
		t.Fatalf("gate tweak %#x, payload tweak %#x outside their sites", gate, pay)
	}
	if _, err := c.tweakBase(last + 1); err == nil {
		t.Fatal("tweakBase accepted a serial whose tweaks reach SitePay")
	}
}
