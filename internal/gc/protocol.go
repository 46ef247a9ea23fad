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
//  1. garbler → evaluator: AND tables ‖ const label ‖ active garbler input
//     labels ‖ evaluator-output decode bits ‖ payload ciphertexts
//  2. one OT batch delivering the evaluator's input labels
//  3. evaluator → garbler: masked bits of garbler outputs (if any)
//
// This is a constant number of rounds regardless of circuit size or depth,
// the property the paper's operator protocols rely on (§5.2).
func RunGarbler(conn transport.Conn, otSend *ot.Sender, c *Circuit, inputs, priv []bool) ([]bool, error) {
	if err := c.checkGarblerBits(inputs, priv); err != nil {
		return nil, err
	}
	gb := garble(c, prf.NewPRG(prf.RandomSeed()), priv, false)
	return finishGarbler(conn, otSend, c, gb, inputs)
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

// finishGarbler runs the garbler's message exchange over garbled
// material, direct or pre-garbled and corrected alike: gb.msg already has
// the wire layout, so the table region — nearly all of the bytes — is
// sent from the buffer it was garbled into.
func finishGarbler(conn transport.Conn, otSend *ot.Sender, c *Circuit, gb *garbled, inputs []bool) ([]bool, error) {
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

	// Evaluator input labels via OT, the pairs flattened over one
	// contiguous backing array.
	if len(gb.evalIn) > 0 {
		back := make([]byte, 32*len(gb.evalIn))
		pairs := make([][2][]byte, len(gb.evalIn))
		for i, l0 := range gb.evalIn {
			p0 := back[32*i : 32*i+16 : 32*i+16]
			p1 := back[32*i+16 : 32*i+32 : 32*i+32]
			copy(p0, l0[:])
			l1 := prf.XORBlockValue(l0, gb.delta)
			copy(p1, l1[:])
			pairs[i] = [2][]byte{p0, p1}
		}
		if err := otSend.Send(pairs); err != nil {
			return nil, err
		}
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

// RunEvaluator executes the 2PC evaluation of c as the evaluating party.
// inputs are the evaluator's private input bits, slot-major. It returns
// the bits of the evaluator outputs, slot-major, each payload's bits
// right after its keying wire's. The garbler's message is
// evaluated where it was received; nothing is copied out of it.
func RunEvaluator(conn transport.Conn, otRecv *ot.Receiver, c *Circuit, inputs []bool) ([]bool, error) {
	if want := c.Slots * len(c.EvalInputs); len(inputs) != want {
		return nil, fmt.Errorf("gc: evaluator got %d input bits, want %d", len(inputs), want)
	}
	_, _, _, want := c.msgLayout()
	msg, err := transport.RecvSized(conn, "gc: garbled message", want)
	if err != nil {
		return nil, err
	}
	var labels [][]byte
	if len(inputs) > 0 {
		if labels, err = otRecv.Receive(inputs, 16); err != nil {
			return nil, err
		}
	}
	out, masked, err := evaluate(c, msg, labels)
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
