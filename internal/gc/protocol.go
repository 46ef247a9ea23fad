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
//  1. evaluator → garbler: the opening message of one correlated-OT batch
//     over the evaluator's input bits — the IKNP matrix, or one
//     derandomization bit per input when the batch is pooled
//  2. garbler → evaluator: AND tables ‖ const label ‖ active garbler input
//     labels ‖ evaluator-output decode bits ‖ payload ciphertexts ‖ one
//     16-byte OT correction per evaluator input (‖ one 16-byte label
//     shift per input when pooled)
//  3. evaluator → garbler: masked bits of garbler outputs (if any)
//
// On the direct path each evaluator input's zero label is the OT's x0 and
// the correlation is free-XOR's x1 = x0 ⊕ Δ, so the label pair costs one
// ciphertext. A pooled batch's x0 is fixed before the circuit is — offline,
// for a pre-garbled one — so the garbler shifts it onto the zero label
// (ot.SendBatch.AppendChosen). A circuit without evaluator inputs is the
// one message of step 2. This is a constant number of rounds regardless of
// circuit size or depth, the property the paper's operator protocols rely
// on (§5.2).
func RunGarbler(conn transport.Conn, otSend *ot.Sender, c *Circuit, inputs, priv []bool) ([]bool, error) {
	if err := c.checkGarblerBits(inputs, priv); err != nil {
		return nil, err
	}
	return runGarbler(conn, otSend, c, nil, inputs, priv)
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

// runGarbler runs the garbler's message exchange. pre is zero-private
// material garbled ahead of time, or nil. It serves a pooled label batch
// (or a circuit without evaluator inputs); on a direct batch the labels
// must be the OT's, so pre is dropped and the circuit garbled afresh. The
// wire format follows the pool, which both parties agree on, never the
// garbler's queue. gb.msg has the wire layout and room for the OT tail,
// so the table region — nearly all of the bytes — is sent from the buffer
// it was garbled into.
func runGarbler(conn transport.Conn, otSend *ot.Sender, c *Circuit, pre *garbled, inputs, priv []bool) ([]bool, error) {
	nE := c.Slots * len(c.EvalInputs)
	var cot *ot.SendBatch
	if nE > 0 {
		var err error
		if cot, err = otSend.BeginCorrelated(nE, 16); err != nil {
			return nil, err
		}
	}
	var gb *garbled
	switch {
	case cot != nil && !cot.Pooled:
		gb = garble(c, prf.NewPRG(prf.RandomSeed()), priv, false, prf.BlocksOf(cot.X0))
	case pre != nil:
		applyPrivate(c, pre, priv)
		gb = pre
	default:
		gb = garble(c, prf.NewPRG(prf.RandomSeed()), priv, false, nil)
	}
	labelsOff, decodeOff, _, _ := c.msgLayout()
	gIn := prf.BlocksOf(gb.msg[labelsOff+16 : decodeOff])
	for i, v := range inputs {
		if v {
			prf.XORBlock(&gIn[i], gIn[i], gb.delta)
		}
	}
	msg := gb.msg
	switch {
	case cot == nil:
	case !cot.Pooled:
		msg = cot.AppendCorrections(msg, func(_ int, x0, x1 []byte) { prf.XORBytes(x1, x0, gb.delta[:]) })
	default:
		var l1 prf.Block
		msg = cot.AppendChosen(msg, func(j int) ([]byte, []byte) {
			l1 = prf.XORBlockValue(gb.evalIn[j], gb.delta)
			return gb.evalIn[j][:], l1[:]
		})
	}
	if err := conn.Send(msg); err != nil {
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

// labelTail returns the bytes of the OT tail after the garbled message of
// a circuit with nE evaluator inputs: one correction per input, and one
// label shift more when the batch is pooled.
func labelTail(nE int, pooled bool) int {
	if pooled {
		return 32 * nE
	}
	return 16 * nE
}

// RunEvaluator executes the 2PC evaluation of c as the evaluating party.
// inputs are the evaluator's private input bits, slot-major. It returns
// the bits of the evaluator outputs, slot-major, each payload's bits
// right after its keying wire's. The garbler's message is size-checked
// against the circuit and the pool state before anything is read from it,
// and evaluated where it was received; nothing is copied out of it.
func RunEvaluator(conn transport.Conn, otRecv *ot.Receiver, c *Circuit, inputs []bool) ([]bool, error) {
	if want := c.Slots * len(c.EvalInputs); len(inputs) != want {
		return nil, fmt.Errorf("gc: evaluator got %d input bits, want %d", len(inputs), want)
	}
	var cot *ot.RecvBatch
	tail := 0
	if len(inputs) > 0 {
		var err error
		if cot, err = otRecv.BeginCorrelated(inputs, 16); err != nil {
			return nil, err
		}
		tail = labelTail(len(inputs), cot.Pooled)
	}
	_, _, _, total := c.msgLayout()
	msg, err := transport.RecvSized(conn, "gc: garbled message", total+tail)
	if err != nil {
		return nil, err
	}
	var labels []byte
	switch {
	case cot == nil:
	case !cot.Pooled:
		labels = cot.Open(msg[total:])
	default:
		labels = cot.OpenChosen(msg[total:])
	}
	out, masked, err := evaluate(c, msg[:total], labels)
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
