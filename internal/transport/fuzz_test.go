package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzRecvFraming feeds arbitrary bytes to the length-prefix decoder. A
// corrupt or hostile prefix must produce an error, never a panic and
// never an up-front allocation proportional to the claimed length (the
// decoder grows its buffer only as payload bytes actually arrive, capped
// at frameChunk ahead of the data).
func FuzzRecvFraming(f *testing.F) {
	good := make([]byte, 4+5)
	binary.LittleEndian.PutUint32(good, 5)
	copy(good[4:], "hello")
	f.Add(good)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})             // claims ~4 GiB, no data
	f.Add([]byte{0x00, 0x00, 0x00, 0x80, 0x01})       // claims 2 GiB, 1 byte
	f.Add([]byte{0x01, 0x00})                         // truncated header
	f.Add([]byte{})                                   // empty stream
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0xaa, 0xbb}) // zero-length frame + trailing
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		// On success the decode must agree with the prefix and the stream
		// must have carried the full payload.
		if len(data) < 4 {
			t.Fatalf("decoded a frame from %d bytes", len(data))
		}
		n := binary.LittleEndian.Uint32(data)
		if int64(n) > MaxMessageSize {
			t.Fatalf("accepted frame of claimed size %d > MaxMessageSize", n)
		}
		if uint32(len(msg)) != n {
			t.Fatalf("frame has %d bytes, prefix claimed %d", len(msg), n)
		}
		if !bytes.Equal(msg, data[4:4+int(n)]) {
			t.Fatal("frame bytes differ from stream payload")
		}
	})
}

// FuzzMuxFrames feeds arbitrary frame sequences from a bare peer into one
// Mux endpoint whose streams 0 and 2 are open and 1 and 3 already closed.
// Each frame is a length byte and that many bytes. The session must
// survive or fail with ErrProtocol — never panic, never another error —
// and hold no more records than its two open streams plus queueCap, none
// with more than queueCap messages queued.
func FuzzMuxFrames(f *testing.F) {
	var seed []byte
	for _, fr := range [][]byte{
		frame(muxData, 0, []byte("to an open stream")),
		frame(muxData, 1, []byte("to a closed stream")),
		frame(muxData, 9, []byte("to an unopened stream")),
		frame(muxClose, 2, nil),
		frame(muxCredit, 0, []byte{1, 0, 0, 0}),
		frame(muxPing, 0, nil),
		frame(muxPong, 0, nil),
	} {
		seed = append(append(seed, byte(len(fr))), fr...)
	}
	f.Add(seed)
	f.Add([]byte{3, muxData, 0, 0})                          // short frame
	f.Add([]byte{6, muxCredit, 0, 0, 0, 0, 7})               // credit with a 1-byte payload
	f.Add([]byte{5, 42, 0, 0, 0, 0})                         // unknown type
	f.Add(append([]byte{5}, frame(muxClose, 1<<31, nil)...)) // close for an unopened id
	f.Add(bytes.Repeat(append([]byte{6}, frame(muxData, 0, []byte{1})...), queueCap+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, peer := rawMux()
		defer m.Close()
		for id := uint32(0); id < 4; id++ {
			c, err := m.Open(id)
			if err != nil {
				t.Fatal(err)
			}
			if id%2 == 1 {
				c.Close()
			}
		}
		pings := 0
		for len(data) > 0 {
			n := min(int(data[0]), len(data)-1)
			fr := data[1 : 1+n]
			data = data[1+n:]
			if len(fr) >= muxHeaderSize && fr[0] == muxPing {
				pings++
			}
			peer.Send(fr)
		}
		// Wait for the pong to every ping, the last one sent after all the
		// frames, or for the Mux to drop the conn.
		peer.Send(frame(muxPing, 0, nil))
		for pongs := 0; pongs <= pings; {
			buf, err := peer.Recv()
			if err != nil {
				break
			}
			if buf[0] == muxPong {
				pongs++
			}
		}
		if err := m.Err(); err != nil && !errors.Is(err, ErrProtocol) {
			t.Fatalf("session error %v, want nil or ErrProtocol", err)
		}
		if records, _ := muxRecords(m); records > 2+queueCap {
			t.Fatalf("%d stream records, bound %d", records, 2+queueCap)
		}
		longest := 0
		m.mu.Lock()
		for _, s := range m.streams {
			s.mu.Lock()
			longest = max(longest, len(s.queue))
			s.mu.Unlock()
		}
		m.mu.Unlock()
		if longest > queueCap {
			t.Fatalf("a receive queue holds %d messages, bound %d", longest, queueCap)
		}
	})
}
