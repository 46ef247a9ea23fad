package ot

// This file is the single source of truth for the wire cost of the OT
// layer. The plan compiler in internal/core uses these closed forms to
// predict traffic exactly; cost_test.go asserts they match the bytes a
// real Sender/Receiver pair puts on a transport.Conn.

// SetupCost returns the total bytes (both directions) exchanged by the
// base OTs that bootstrap one OT-extension session, i.e. one
// NewSender/NewReceiver pair, and the receiver's GGM corrections:
//
//	NewReceiver runs BaseSend:  the setup point S
//	NewSender runs BaseRecv:    κ points R_i
//	NewReceiver sends:          the GGM corrections, treeBytes
//
// The corrections are, per chunk of SoftSpoken's k base OTs, k − 1
// levels of one left and one right κ-bit sum: 3 072 B at k = 4.
func SetupCost() int64 {
	return int64(1+kappa)*pointLen + treeBytes
}

// DeriveCost returns the bytes that set up the opposite direction of an
// established session (Receiver.Reverse/Sender.Reverse): one direct
// batch of κ random OTs, i.e. the first direction's receiver's
// correction message for κ instances, and the new receiver's GGM
// corrections back.
func DeriveCost() int64 { return ExtOfflineCost(kappa) + treeBytes }

// KKRTSetupCost returns the bytes that set up a KKRT extension on an
// established extension direction (NewKKRTSender/NewKKRTReceiver): one
// direct batch of KKRTWidth random OTs, i.e. its correction message for
// KKRTWidth instances.
func KKRTSetupCost() int64 { return ExtOfflineCost(KKRTWidth) }

// KKRTCost returns the bytes of one KKRT batch of m instances
// (KKRTReceiver.Receive/KKRTSender.Send): the receiver's correction
// matrix of KKRTWidth columns of ⌈m/8⌉ bytes and nothing else, i.e.
// KKRTCodeBytes per instance in groups of eight. A batch of zero
// instances exchanges nothing.
func KKRTCost(m int) int64 { return int64(KKRTWidth) * int64((m+7)/8) }

// CorrelatedCost returns the total bytes of one direct correlated-OT
// batch (SendCorrelated/ReceiveCorrelated) of m OTs: the receiver's
// correction message plus one msgLen-byte correction per instance.
func CorrelatedCost(m, msgLen int) int64 {
	return ExtOfflineCost(m) + int64(m)*int64(msgLen)
}

// ExtOfflineCost returns the bytes a precomputed (FillRandom) batch of m
// OTs moves during the offline phase: only the receiver's correction
// message, one mPad-bit column per SoftSpoken chunk (κ/k bits per
// instance, a k-th of IKNP's κ×mPad matrix). Message width is
// irrelevant offline — pads are derived locally and kept. It is also
// the whole of a direct random-OT batch, which is what the derived
// setups run.
func ExtOfflineCost(m int) int64 {
	if m == 0 {
		return 0
	}
	mPad := (m + 63) &^ 63
	return int64(chunks/8) * int64(mPad)
}

// RandomOnlineCost returns the online bytes of a pooled random-OT batch:
// the receiver's ⌈m/8⌉ packed derandomization bits, the opening message
// of every batch served from the pool.
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
