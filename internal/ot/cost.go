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

// DeriveCost returns the bytes that set up the opposite direction of an
// established session (Receiver.Reverse/Sender.Reverse): one direct
// batch of κ random OTs, i.e. the first direction's receiver's κ×κ
// correction matrix.
func DeriveCost() int64 { return RandomCost(kappa) }

// ExtCost returns the total bytes (both directions) of one direct
// chosen-message batch (Send/Receive) of m OTs with msgLen-byte messages:
// the receiver's κ×mPad correction matrix plus the sender's reply, one
// correction and one word per instance. A batch of zero OTs exchanges
// nothing.
func ExtCost(m, msgLen int) int64 {
	return CorrelatedCost(m, msgLen) + int64(m)*int64(msgLen)
}

// CorrelatedCost returns the total bytes of one direct correlated-OT
// batch (SendCorrelated/ReceiveCorrelated) of m OTs: the receiver's
// κ×mPad correction matrix plus one msgLen-byte correction per instance.
func CorrelatedCost(m, msgLen int) int64 {
	return ExtOfflineCost(m) + int64(m)*int64(msgLen)
}

// RandomCost returns the total bytes of one direct SendRandom/
// ReceiveRandom batch of m random OTs: the receiver's κ×mPad correction
// matrix and nothing else — the pads are the outputs, so no ciphertext
// follows. It is what FillRandom moves for a batch of the same size; a
// pooled batch costs RandomOnlineCost instead.
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

// RandomOnlineCost returns the online bytes of a pooled random-OT batch:
// the receiver's ⌈m/8⌉ packed derandomization bits.
func RandomOnlineCost(m int) int64 { return int64((m + 7) / 8) }

// CorrelatedOnlineCost returns the online bytes of a pooled correlated-OT
// batch: the derandomization bits plus the sender's m corrections.
// Summed with ExtOfflineCost it exceeds CorrelatedCost by exactly the
// bits — the total additive overhead of precomputation.
func CorrelatedOnlineCost(m, msgLen int) int64 {
	return RandomOnlineCost(m) + int64(m)*int64(msgLen)
}

// ExtOnlineCost returns the online bytes of a pooled chosen-message
// batch: the derandomization bits plus the sender's corrections and
// words.
func ExtOnlineCost(m, msgLen int) int64 {
	return CorrelatedOnlineCost(m, msgLen) + int64(m)*int64(msgLen)
}
