package gc

import (
	"fmt"

	"secyan/internal/ot"
	"secyan/internal/prf"
	"secyan/internal/transport"
)

// RunGarbler executes the 2PC evaluation of c as the garbling party.
// inputs are the garbler's private input bits and priv its private bits,
// both slot-major. It returns the bits of the garbler outputs, slot-major.
// The protocol is:
//
//  1. evaluator → garbler: the opening message of one Δ-OT batch over
//     the evaluator's input bits (ot.DeltaBatch) — the extension's
//     correction columns (4 B per OT, ot.ExtOfflineCost), or one
//     derandomization bit per input when the batch is pooled
//  2. garbler → evaluator: AND tables ‖ const label ‖ active garbler input
//     labels ‖ evaluator-output decode bits ‖ payload ciphertexts
//  3. evaluator → garbler: masked bits of garbler outputs (if any)
//
// The circuit is garbled under the garbler's OT-extension Δ, and the zero
// label of evaluator input j is the batch's row q_j, flipped by d_j·Δ
// when the batch is pooled: the evaluator's own row t_j is then the label
// of its bit, and no label crosses the wire. A circuit without evaluator
// inputs is the one message of step 2. This is a constant number of
// rounds regardless of circuit size or depth, the property the paper's
// operator protocols rely on (§5.2).
func RunGarbler(conn transport.Conn, otSend *ot.Sender, c *Circuit, inputs, priv []bool) ([]bool, error) {
	if err := c.checkGarblerBits(inputs, priv); err != nil {
		return nil, err
	}
	return runGarbler(conn, otSend, c, inputs, priv)
}

func (c *Circuit) checkGarblerBits(inputs, priv []bool) error {
	if want := c.Slots * len(c.GarblerInputs); len(inputs) != want {
		return fmt.Errorf("gc: garbler got %d input bits, want %d", len(inputs), want)
	}
	if want := c.Slots * c.NumPrivate; len(priv) != want {
		return fmt.Errorf("gc: garbler got %d private bits, want %d", len(priv), want)
	}
	return nil
}

// runGarbler runs the garbler's message exchange. The label batch the
// OT opens either carries zero-private material of c's shape garbled
// over its rows (served), which takes the private bits and flips, or c
// is garbled here over the batch.
func runGarbler(conn transport.Conn, otSend *ot.Sender, c *Circuit, inputs, priv []bool) ([]bool, error) {
	b, err := otSend.BeginDelta(c.Slots * len(c.EvalInputs))
	if err != nil {
		return nil, err
	}
	gb := served(b, c)
	if gb != nil {
		applyPrivate(c, gb, priv, b.Flips)
	} else {
		ck, err := keyOver(c, otSend, b)
		if err != nil {
			return nil, err
		}
		for j := range b.Q {
			if b.Flips != nil && getBit(b.Flips, j) {
				prf.XORBlock(&b.Q[j], b.Q[j], ck.delta)
			}
		}
		gb = garble(c, ck, prf.NewPRG(prf.RandomSeed()), priv, false, b.Q)
	}
	labelsOff, decodeOff, _, _ := c.msgLayout()
	gIn := prf.BlocksOf(gb.msg[labelsOff+16 : decodeOff])
	for i, v := range inputs {
		if v {
			prf.XORBlock(&gIn[i], gIn[i], gb.delta)
		}
	}
	if err := conn.Send(gb.msg); err != nil {
		return nil, err
	}

	// Garbler outputs: the evaluator returns lsb(active); unmask with
	// the zero label's permute bit.
	nOut := c.Slots * len(c.GarblerOutputs)
	if nOut == 0 {
		return nil, nil
	}
	masked, err := transport.RecvSized(conn, "gc: masked outputs", len(gb.outPerm))
	if err != nil {
		return nil, err
	}
	out := make([]bool, nOut)
	for i := range out {
		out[i] = getBit(masked, i) != getBit(gb.outPerm, i)
	}
	return out, nil
}

// keyOver returns the key of c garbled over the label batch b of otSend:
// the sender's Δ, its stream word and the tweak base of b's serial.
func keyOver(c *Circuit, otSend *ot.Sender, b *ot.DeltaBatch) (circuitKey, error) {
	base, err := c.tweakBase(b.Serial)
	return circuitKey{delta: otSend.Delta(), word: otSend.Word(), base: base}, err
}

// RunEvaluator executes the 2PC evaluation of c as the evaluating party.
// inputs are the evaluator's private input bits, slot-major. It returns
// the bits of the evaluator outputs, slot-major, each payload's bits
// right after its keying wire's. The garbler's message is size-checked
// against the circuit before anything is read from it, and evaluated
// where it was received; nothing is copied out of it.
func RunEvaluator(conn transport.Conn, otRecv *ot.Receiver, c *Circuit, inputs []bool) ([]bool, error) {
	if want := c.Slots * len(c.EvalInputs); len(inputs) != want {
		return nil, fmt.Errorf("gc: evaluator got %d input bits, want %d", len(inputs), want)
	}
	labels, serial, err := otRecv.ReceiveDelta(inputs)
	if err != nil {
		return nil, err
	}
	base, err := c.tweakBase(serial)
	if err != nil {
		return nil, err
	}
	_, _, _, total := c.msgLayout()
	msg, err := transport.RecvSized(conn, "gc: garbled message", total)
	if err != nil {
		return nil, err
	}
	out, masked, err := evaluate(c, otRecv.Word(), base, msg, labels)
	if err != nil {
		return nil, err
	}
	if len(masked) > 0 {
		if err := conn.Send(masked); err != nil {
			return nil, err
		}
	}
	return out, nil
}
