package ot

import (
	"crypto/rand"
	"sync"
	"testing"

	"secyan/internal/transport"
)

// TestSetupCostExact checks SetupCost against the measured traffic of a
// fresh NewSender/NewReceiver pair.
func TestSetupCostExact(t *testing.T) {
	a, b := transport.Pair()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := NewReceiver(b); err != nil {
			t.Errorf("NewReceiver: %v", err)
		}
	}()
	if _, err := NewSender(a); err != nil {
		t.Fatalf("NewSender: %v", err)
	}
	wg.Wait()
	st := a.Stats()
	if got := st.TotalBytes(); got != SetupCost() {
		t.Fatalf("base OT setup moved %d bytes, SetupCost predicts %d", got, SetupCost())
	}
}

// TestExtCostExact checks extCost against measured per-batch traffic
// across padding boundaries and message lengths.
func TestExtCostExact(t *testing.T) {
	a, b := transport.Pair()
	var snd *Sender
	var rcv *Receiver
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		rcv, err = NewReceiver(b)
		if err != nil {
			t.Errorf("NewReceiver: %v", err)
		}
	}()
	var err error
	snd, err = NewSender(a)
	if err != nil {
		t.Fatalf("NewSender: %v", err)
	}
	wg.Wait()

	for _, m := range []int{0, 1, 7, 63, 64, 65, 200} {
		for _, msgLen := range []int{16, 40} {
			before := a.Stats().TotalBytes()
			choices := make([]bool, m)
			pairs := make([][2][]byte, m)
			for i := range pairs {
				choices[i] = i%3 == 0
				for c := 0; c < 2; c++ {
					msg := make([]byte, msgLen)
					rand.Read(msg)
					pairs[i][c] = msg
				}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := rcv.Receive(choices, msgLen); err != nil {
					t.Errorf("Receive(m=%d): %v", m, err)
				}
			}()
			if err := snd.Send(pairs); err != nil {
				t.Fatalf("Send(m=%d): %v", m, err)
			}
			wg.Wait()
			if got, want := a.Stats().TotalBytes()-before, extCost(m, msgLen); got != want {
				t.Fatalf("batch m=%d msgLen=%d moved %d bytes, extCost predicts %d", m, msgLen, got, want)
			}
		}
	}
}

// extCost returns the total bytes (both directions) of one direct
// chosen-message batch (Send/Receive) of m OTs with msgLen-byte messages:
// the receiver's correction message plus the sender's reply, one
// correction and one word per instance. A batch of zero OTs exchanges
// nothing.
func extCost(m, msgLen int) int64 {
	return CorrelatedCost(m, msgLen) + int64(m)*int64(msgLen)
}
