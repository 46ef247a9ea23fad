package ot

// This file is the single source of truth for the wire cost of the OT
// layer. The plan compiler in internal/core uses these closed forms to
// predict traffic exactly; cost_test.go asserts they match the bytes a
// real Sender/Receiver pair puts on a transport.Conn.

// SetupCost returns the total bytes (both directions) exchanged by the
// base OTs that bootstrap one OT-extension session, i.e. one
// NewSender/NewReceiver pair:
//
//	NewReceiver runs BaseSend:  the setup point S
//	NewSender runs BaseRecv:    κ points R_i
func SetupCost() int64 {
	return int64(1+kappa) * pointLen
}

// ExtCost returns the total bytes (both directions) of one IKNP
// extension batch of m OTs with msgLen-byte messages: the receiver's
// κ×mPad correction matrix plus the sender's 2m ciphertexts. A batch of
// zero OTs exchanges nothing.
func ExtCost(m, msgLen int) int64 {
	if m == 0 {
		return 0
	}
	mPad := (m + 63) &^ 63
	return int64(kappa/8)*int64(mPad) + 2*int64(m)*int64(msgLen)
}

// RandomCost returns the total bytes of one direct SendRandom/
// ReceiveRandom batch of m random OTs: the receiver's κ×mPad correction
// matrix and nothing else — the pads are the outputs, so no ciphertext
// follows. It is what FillRandom moves for a batch of the same size; a
// pooled batch costs ⌈m/8⌉ derandomization bits online instead.
func RandomCost(m int) int64 { return ExtOfflineCost(m) }

// ExtOfflineCost returns the bytes a precomputed (FillRandom) batch of m
// OTs moves during the offline phase: only the receiver's κ×mPad
// correction matrix. Message width is irrelevant offline — pads are
// derived locally and kept.
func ExtOfflineCost(m int) int64 {
	if m == 0 {
		return 0
	}
	mPad := (m + 63) &^ 63
	return int64(kappa/8) * int64(mPad)
}

// ExtOnlineCost returns the bytes the derandomized online exchange moves
// for a precomputed batch: ⌈m/8⌉ packed correction bits from the
// receiver plus the sender's usual 2m ciphertexts. Summed with
// ExtOfflineCost this exceeds ExtCost by exactly the correction bits —
// the total additive overhead of precomputation.
func ExtOnlineCost(m, msgLen int) int64 {
	if m == 0 {
		return 0
	}
	return int64((m+7)/8) + 2*int64(m)*int64(msgLen)
}
