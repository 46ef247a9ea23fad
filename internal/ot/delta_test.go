package ot

import (
	"math/rand"
	"testing"

	"secyan/internal/prf"
)

// openDelta runs one Δ-OT batch, BeginDelta against ReceiveDelta, and
// returns both ends' outputs and the bytes it moved.
func openDelta(t *testing.T, snd *Sender, rcv *Receiver, choices []bool) (*DeltaBatch, []byte, uint64, int64) {
	t.Helper()
	before := rcv.conn.Stats().TotalBytes()
	type res struct {
		b   *DeltaBatch
		err error
	}
	ch := make(chan res, 1)
	go func() { b, err := snd.BeginDelta(len(choices)); ch <- res{b, err} }()
	rows, serial, err := rcv.ReceiveDelta(choices)
	if err != nil {
		t.Fatalf("ReceiveDelta(%d): %v", len(choices), err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("BeginDelta(%d): %v", len(choices), r.err)
	}
	return r.b, rows, serial, rcv.conn.Stats().TotalBytes() - before
}

// fillDelta runs one matched FillDelta on both ends and returns the
// sender's batch and the bytes it moved.
func fillDelta(t *testing.T, snd *Sender, rcv *Receiver, m int) (*DeltaBatch, int64) {
	t.Helper()
	before := rcv.conn.Stats().TotalBytes()
	type res struct {
		b   *DeltaBatch
		err error
	}
	ch := make(chan res, 1)
	go func() { b, err := snd.FillDelta(m); ch <- res{b, err} }()
	if err := rcv.FillDelta(m); err != nil {
		t.Fatalf("Receiver.FillDelta(%d): %v", m, err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("Sender.FillDelta(%d): %v", m, r.err)
	}
	return r.b, rcv.conn.Stats().TotalBytes() - before
}

// checkDeltaRows fails unless the receiver's row j is x_j ⊕ c_j·Δ for the
// sender's x_j = q_j ⊕ d_j·Δ.
func checkDeltaRows(t *testing.T, what string, delta prf.Block, b *DeltaBatch, rows []byte, choices []bool) {
	t.Helper()
	if len(b.Q) != len(choices) || len(rows) != 16*len(choices) {
		t.Fatalf("%s: %d sender rows and %d receiver bytes for %d OTs", what, len(b.Q), len(rows), len(choices))
	}
	for j, c := range choices {
		want := b.Q[j]
		if c != (b.Flips != nil && b.Flips[j/8]>>(j%8)&1 == 1) {
			want = prf.XORBlockValue(want, delta)
		}
		if prf.Block(rows[16*j:]) != want {
			t.Fatalf("%s: OT %d (choice %v): receiver row is not the sender's label", what, j, c)
		}
	}
}

// TestDeltaOT pins the Δ-OT batch on a P-256 pair and on the direction
// derived from it: lsb(Δ) = 1; a direct batch's rows are the labels of
// the receiver's choices under Δ and the batch moves exactly its
// correction message (ExtOfflineCost); a pooled batch's fill moves the
// same offline and its opening exactly ⌈m/8⌉ bytes (RandomOnlineCost),
// after which the rows are the labels of the choices under the flipped
// zero labels; both ends number the batches alike, one serial per batch,
// zero-sized and pooled ones included; and random-OT batches after them
// still deliver.
func TestDeltaOT(t *testing.T) {
	snd, rcv, done := newExtPair(t)
	defer done()
	rs, rr := reverse(t, snd, rcv, true)
	rng := rand.New(rand.NewSource(47))
	for name, d := range map[string]struct {
		snd *Sender
		rcv *Receiver
	}{"P-256": {snd, rcv}, "derived": {rs, rr}} {
		delta := d.snd.Delta()
		if delta.LSB() != 1 {
			t.Fatalf("%s: lsb(Δ) = 0", name)
		}
		serial := uint64(0)
		for _, m := range []int{0, 1, 63, 64, 65, 700} {
			choices := randomChoices(rng, m)
			b, rows, rser, moved := openDelta(t, d.snd, d.rcv, choices)
			if b.Serial != serial || rser != serial {
				t.Fatalf("%s m=%d direct: serials %d / %d, want %d", name, m, b.Serial, rser, serial)
			}
			serial++
			if moved != ExtOfflineCost(m) || b.Flips != nil {
				t.Fatalf("%s m=%d direct: moved %d bytes, want %d", name, m, moved, ExtOfflineCost(m))
			}
			checkDeltaRows(t, name+" direct", delta, b, rows, choices)
			if m == 0 {
				continue
			}

			pooled, moved := fillDelta(t, d.snd, d.rcv, m)
			if moved != ExtOfflineCost(m) || pooled.Serial != serial {
				t.Fatalf("%s m=%d fill: moved %d bytes, serial %d; want %d, %d", name, m, moved, pooled.Serial, ExtOfflineCost(m), serial)
			}
			serial++
			b, rows, rser, moved = openDelta(t, d.snd, d.rcv, choices)
			if b != pooled || rser != pooled.Serial {
				t.Fatalf("%s m=%d pooled: opened another batch (serial %d / %d)", name, m, b.Serial, rser)
			}
			if moved != RandomOnlineCost(m) || len(b.Flips) != (m+7)/8 {
				t.Fatalf("%s m=%d pooled: moved %d bytes, want %d", name, m, moved, RandomOnlineCost(m))
			}
			checkDeltaRows(t, name+" pooled", delta, b, rows, choices)
			runBatch(t, d.snd, d.rcv, rng, m, 16)
		}
	}
}

// TestSendersFixLSBOfDelta sets up fresh P-256 pairs and their derived
// directions: every sender's Δ has lsb 1, the point-and-permute bit of
// the circuits garbled under it, while a uniform bit would be 0 in half
// the setups.
func TestSendersFixLSBOfDelta(t *testing.T) {
	for i := 0; i < 8; i++ {
		snd, rcv, done := newExtPair(t)
		rs, _ := reverse(t, snd, rcv, i%2 == 0)
		if snd.Delta().LSB() != 1 || rs.Delta().LSB() != 1 {
			t.Fatalf("setup %d: lsb(Δ) = %d (P-256), %d (derived)", i, snd.Delta().LSB(), rs.Delta().LSB())
		}
		done()
	}
}

func randomChoices(rng *rand.Rand, m int) []bool {
	c := make([]bool, m)
	for j := range c {
		c[j] = rng.Intn(2) == 1
	}
	return c
}
