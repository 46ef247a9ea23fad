package ot

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"secyan/internal/bitutil"
	"secyan/internal/prf"
	"secyan/internal/transport"
)

// recordingConn wraps a Conn and records the size of every message in
// transfer order. Message *sizes* (unlike contents, which depend on
// session randomness) are a deterministic transcript fingerprint: they
// must not change with the worker count.
type recordingConn struct {
	transport.Conn
	mu   sync.Mutex
	sent []int
	recv []int
}

func (r *recordingConn) Send(data []byte) error {
	err := r.Conn.Send(data)
	if err == nil {
		r.mu.Lock()
		r.sent = append(r.sent, len(data))
		r.mu.Unlock()
	}
	return err
}

func (r *recordingConn) Recv() ([]byte, error) {
	m, err := r.Conn.Recv()
	if err == nil {
		r.mu.Lock()
		r.recv = append(r.recv, len(m))
		r.mu.Unlock()
	}
	return m, err
}

// extensionRun captures everything observable about one OT-extension
// session that must be invariant under the worker count.
type extensionRun struct {
	out      [][]byte
	sndStats transport.Stats
	rcvStats transport.Stats
	sndSent  []int
	rcvSent  []int
	sndIdx   uint64
	rcvIdx   uint64
	sndErr   error
}

func runExtensionAt(t *testing.T, workers, m, msgLen int, seed int64) extensionRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))

	rawA, rawB := transport.Pair()
	defer rawA.Close()
	defer rawB.Close()
	a := &recordingConn{Conn: rawA}
	b := &recordingConn{Conn: rawB}

	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2][]byte, m)
	choices := make([]bool, m)
	for j := range pairs {
		pairs[j][0] = make([]byte, msgLen)
		pairs[j][1] = make([]byte, msgLen)
		rng.Read(pairs[j][0])
		rng.Read(pairs[j][1])
		choices[j] = rng.Intn(2) == 1
	}

	var run extensionRun
	var snd *Sender
	done := make(chan struct{})
	go func() {
		defer close(done)
		var err error
		snd, err = NewSender(a)
		if err != nil {
			run.sndErr = err
			return
		}
		run.sndErr = snd.Send(pairs)
	}()
	rcv, err := NewReceiver(b)
	if err != nil {
		t.Fatalf("NewReceiver: %v", err)
	}
	out, err := rcv.Receive(choices, msgLen)
	if err != nil {
		t.Fatalf("Receive: %v", err)
	}
	<-done
	if run.sndErr != nil {
		t.Fatalf("sender: %v", run.sndErr)
	}

	// The receiver must hold exactly the chosen messages.
	for j := range out {
		want := pairs[j][0]
		if choices[j] {
			want = pairs[j][1]
		}
		if !bytes.Equal(out[j], want) {
			t.Fatalf("workers=%d: message %d mismatch", workers, j)
		}
	}

	run.out = out
	run.sndStats = a.Conn.Stats()
	run.rcvStats = b.Conn.Stats()
	run.sndSent = a.sent
	run.rcvSent = b.sent
	run.sndIdx = snd.idx
	run.rcvIdx = rcv.idx
	return run
}

// TestExtensionTranscriptEquivalenceAcrossWorkers runs the same OT
// extension batch at worker counts 1 and 4 and requires the outputs, the
// full transport.Stats of both endpoints, the per-message size sequence,
// and the tweak counters to be identical.
func TestExtensionTranscriptEquivalenceAcrossWorkers(t *testing.T) {
	for _, cfg := range []struct{ m, msgLen int }{
		{m: 333, msgLen: 16},
		{m: 64, msgLen: 33},
		{m: 5000, msgLen: 16}, // five 1 024-instance chunks, the last one partial
	} {
		t.Run(fmt.Sprintf("m=%d/len=%d", cfg.m, cfg.msgLen), func(t *testing.T) {
			ref := runExtensionAt(t, 1, cfg.m, cfg.msgLen, 99)
			for _, workers := range []int{4} {
				got := runExtensionAt(t, workers, cfg.m, cfg.msgLen, 99)
				if !reflect.DeepEqual(got.out, ref.out) {
					t.Fatalf("workers=%d: outputs differ from serial run", workers)
				}
				if got.sndStats != ref.sndStats {
					t.Fatalf("workers=%d: sender stats %+v, serial %+v", workers, got.sndStats, ref.sndStats)
				}
				if got.rcvStats != ref.rcvStats {
					t.Fatalf("workers=%d: receiver stats %+v, serial %+v", workers, got.rcvStats, ref.rcvStats)
				}
				if !reflect.DeepEqual(got.sndSent, ref.sndSent) {
					t.Fatalf("workers=%d: sender message sizes %v, serial %v", workers, got.sndSent, ref.sndSent)
				}
				if !reflect.DeepEqual(got.rcvSent, ref.rcvSent) {
					t.Fatalf("workers=%d: receiver message sizes %v, serial %v", workers, got.rcvSent, ref.rcvSent)
				}
				if got.sndIdx != ref.sndIdx || got.rcvIdx != ref.rcvIdx {
					t.Fatalf("workers=%d: idx (%d,%d), serial (%d,%d)", workers, got.sndIdx, got.rcvIdx, ref.sndIdx, ref.rcvIdx)
				}
			}
		})
	}
}

// ggmLeaf is the reference for leaf x of chunk j's tree, walked root to
// leaf rather than level by level: the level-1 node is base OT kj's seed
// x_0, and each further bit x_ℓ picks child x_ℓ, bytes [16·x_ℓ, 16·x_ℓ +
// 16) of AES-CTR under the parent.
func ggmLeaf(pairs [][2]prf.Seed, j, x int) prf.Seed {
	node := pairs[j*chunkBits][x&1]
	for l := 1; l < chunkBits; l++ {
		var b [2 * prf.SeedSize]byte
		g := prf.NewCTR(node)
		g.KeyStream(b[:], 0)
		node = prf.Seed(b[(x>>l&1)*prf.SeedSize:])
	}
	return node
}

// TestTiledExpansionMatchesMatrixPath pins the chunk kernel and the
// tiled sender to the whole-matrix formulation of SoftSpoken: from fixed
// base-OT seeds, the receiver holds every leaf of every chunk's tree
// (ggmLeaf) and the sender every leaf but Δ_j = ¬c_j, with Δ as its s;
// T is built as a bitutil.Matrix whose column kj+b is the XOR of the
// streams of chunk j's leaves with bit b set and transposed whole; the
// message is every chunk's XOR of all its leaves' streams ⊕ r; the
// receiver's pad of instance j is the hash of row j of Tᵀ, and the
// sender's pads are the hashes of q_j = t_j ⊕ r_j·Δ and q_j ⊕ Δ. Batch
// sizes fall on and across block (64) and tile (1 024) boundaries, run
// back to back so later batches start at nonzero stream offsets, at one
// and four workers.
func TestTiledExpansionMatchesMatrixPath(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	cBits := make([]bool, kappa)
	pairs := make([][2]prf.Seed, kappa)
	seeds := make([]prf.Seed, kappa)
	var delta [kappa / 8]byte
	for i := range pairs {
		rng.Read(pairs[i][0][:])
		rng.Read(pairs[i][1][:])
		cBits[i] = rng.Intn(2) == 1
		seeds[i] = pairs[i][0]
		if cBits[i] {
			seeds[i] = pairs[i][1]
		} else {
			delta[i/8] |= 1 << (i % 8)
		}
	}
	for _, workers := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			a, b := transport.Pair()
			defer a.Close()
			defer b.Close()
			cc := &copyingConn{Conn: b}
			rcv, corr := newReceiver(cc, pairs)
			snd := newSender(a, cBits, seeds, corr)
			if snd.s != delta {
				t.Fatalf("workers=%d: sender's Δ %x, want ¬c = %x", workers, snd.s, delta)
			}
			var want, got [prf.SeedSize]byte
			for j := 0; j < chunks; j++ {
				dj := int(delta[j/2]>>(4*(j%2))) & (chunkLeaves - 1)
				for x := 0; x < chunkLeaves; x++ {
					leaf := ggmLeaf(pairs, j, x)
					if rcv.leaves[j][x] != leaf {
						t.Fatalf("chunk %d: receiver's leaf %d differs from the reference tree", j, x)
					}
					if x == dj {
						continue
					}
					g := prf.NewCTR(leaf)
					g.KeyStream(want[:], 0)
					snd.leaves[j*(chunkLeaves-1)+(x^dj)-1].KeyStream(got[:], 0)
					if got != want {
						t.Fatalf("chunk %d: sender's leaf %d differs from the reference tree", j, x)
					}
				}
			}
			for _, cfg := range []struct{ m, msgLen int }{
				{1, 16}, {64, 5}, {1000, 16}, {1024, 33}, {1025, 16}, {3000, 7},
			} {
				m, msgLen := cfg.m, cfg.msgLen
				choices := make([]bool, m)
				for j := range choices {
					choices[j] = rng.Intn(2) == 1
				}
				off, idx := rcv.off, rcv.idx
				type sent struct {
					r0, r1 []byte
					err    error
				}
				ch := make(chan sent, 1)
				go func() {
					r0, r1, err := snd.randomPads(m, msgLen)
					ch <- sent{r0, r1, err}
				}()
				rc, err := rcv.randomPads(choices, msgLen)
				if err != nil {
					t.Fatal(err)
				}
				res := <-ch
				if res.err != nil {
					t.Fatal(res.err)
				}

				mPad := int(padTo64(m))
				rowBytes := mPad / 8
				r := make([]byte, rowBytes)
				packBits(r, choices)
				tm := bitutil.NewMatrix(kappa, mPad)
				wantU := make([]byte, chunks*rowBytes)
				stream, col := make([]byte, rowBytes), make([]byte, rowBytes)
				for j := 0; j < chunks; j++ {
					u := wantU[j*rowBytes : (j+1)*rowBytes]
					copy(u, r)
					for x := 0; x < chunkLeaves; x++ {
						g := prf.NewCTR(ggmLeaf(pairs, j, x))
						g.KeyStream(stream, off)
						prf.XORBytes(u, u, stream)
					}
					for bit := 0; bit < chunkBits; bit++ {
						clear(col)
						for x := 0; x < chunkLeaves; x++ {
							if x>>bit&1 == 1 {
								g := prf.NewCTR(ggmLeaf(pairs, j, x))
								g.KeyStream(stream, off)
								prf.XORBytes(col, col, stream)
							}
						}
						tm.SetRowBytes(j*chunkBits+bit, col)
					}
				}
				if !bytes.Equal(cc.last, wantU) {
					t.Fatalf("workers=%d m=%d: the correction message differs from the matrix path", workers, m)
				}
				tt := tm.Transpose()
				pad := make([]byte, msgLen)
				for j, c := range choices {
					var row prf.Block
					tt.RowBytesInto(row[:], j)
					derivePad(pad, 0, idx+uint64(j), row)
					if !bytes.Equal(rc[j*msgLen:(j+1)*msgLen], pad) {
						t.Fatalf("workers=%d m=%d len=%d: receiver pad %d differs from the matrix path", workers, m, msgLen, j)
					}
					if c {
						prf.XORBytes(row[:], row[:], delta[:])
					}
					derivePad(pad, 0, idx+uint64(j), row)
					if !bytes.Equal(res.r0[j*msgLen:(j+1)*msgLen], pad) {
						t.Fatalf("workers=%d m=%d len=%d: sender pad 0 of %d differs from the matrix path", workers, m, msgLen, j)
					}
					prf.XORBytes(row[:], row[:], delta[:])
					derivePad(pad, 0, idx+uint64(j), row)
					if !bytes.Equal(res.r1[j*msgLen:(j+1)*msgLen], pad) {
						t.Fatalf("workers=%d m=%d len=%d: sender pad 1 of %d differs from the matrix path", workers, m, msgLen, j)
					}
				}
			}
		}()
	}
}

// copyingConn keeps a copy of the last message sent through it: the peer
// owns what it receives and may overwrite it (the KKRT sender derives Q
// in place in the matrix).
type copyingConn struct {
	transport.Conn
	last []byte
}

func (c *copyingConn) Send(data []byte) error {
	c.last = bytes.Clone(data)
	return c.Conn.Send(data)
}

// TestKKRTMatchesMatrixPath pins the KKRT batch to its whole-matrix
// formulation: from fixed base-OT seeds and code words, the code matrix
// is built as a bitutil.Matrix and transposed whole, u_i = t_i ⊕
// G(k_i^1) ⊕ (column i of the codes) cut to ⌈m/8⌉ bytes, the receiver's
// output is the hash of row j of Tᵀ and the sender's Q is built from the
// column streams and transposed whole. The u message, the receiver's
// outputs and the sender's Eval at the programmed code words must be
// byte-equal to it. Batch sizes fall on and across byte, block (64) and
// chunk (1 024) boundaries, run back to back so later batches start at
// nonzero stream offsets, at one and four workers.
func TestKKRTMatchesMatrixPath(t *testing.T) {
	const outLen = 16
	for _, workers := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			rng := rand.New(rand.NewSource(43))
			ks, kr := kkrtFromSeeds(t, rng)
			cc := &copyingConn{Conn: kr.conn}
			kr.conn = cc
			for _, m := range []int{1, 7, 8, 9, 63, 64, 65, 1000, 1024, 1025, 3000} {
				codes := make([]byte, m*KKRTCodeBytes)
				rng.Read(codes)
				off, idx := kr.off, kr.idx
				out, keys := kkrtBatch(t, ks, kr, codes, outLen)

				mPad, colBytes := int(padTo64(m)), (m+7)/8
				cm := bitutil.NewMatrix(mPad, KKRTWidth)
				for j := 0; j < m; j++ {
					cm.SetRowBytes(j, codes[j*KKRTCodeBytes:(j+1)*KKRTCodeBytes])
				}
				ct := cm.Transpose()
				tm := bitutil.NewMatrix(KKRTWidth, mPad)
				qm := bitutil.NewMatrix(KKRTWidth, mPad)
				wantU := make([]byte, KKRTWidth*colBytes)
				t0, t1, c := make([]byte, colBytes), make([]byte, colBytes), make([]byte, mPad/8)
				for i, p := range kr.pairs {
					g0, g1 := prf.NewCTR(p[0]), prf.NewCTR(p[1])
					g0.KeyStream(t0, off)
					g1.KeyStream(t1, off)
					ct.RowBytesInto(c, i)
					u := wantU[i*colBytes : (i+1)*colBytes]
					prf.XORBytes(u, t0, t1)
					prf.XORBytes(u, u, c[:colBytes])
					tm.SetRowBytes(i, t0)
					if ks.s[i/8]>>(i%8)&1 == 1 {
						prf.XORBytes(t1, t1, u) // q_i = G(k_i^1) ⊕ u_i
						qm.SetRowBytes(i, t1)
					} else {
						qm.SetRowBytes(i, t0)
					}
				}
				if !bytes.Equal(cc.last, wantU) {
					t.Fatalf("workers=%d m=%d: u differs from the matrix path", workers, m)
				}
				rows, qrows := tm.Transpose(), qm.Transpose()
				var row [KKRTCodeBytes]byte
				var code [KKRTCodeBytes]byte
				want, got := make([]byte, outLen), make([]byte, outLen)
				for j := 0; j < m; j++ {
					rows.RowBytesInto(row[:], j)
					kkrtHash(want, 0, idx+uint64(j), row[:])
					if !bytes.Equal(out[j*outLen:(j+1)*outLen], want) {
						t.Fatalf("workers=%d m=%d: receiver output %d differs from the matrix path", workers, m, j)
					}
					copy(code[:], codes[j*KKRTCodeBytes:])
					qrows.RowBytesInto(row[:], j)
					for b := range row {
						row[b] ^= code[b] & ks.s[b]
					}
					kkrtHash(want, 0, idx+uint64(j), row[:])
					if keys.Eval(got, j, &code); !bytes.Equal(got, want) {
						t.Fatalf("workers=%d m=%d: sender Eval %d differs from the matrix path", workers, m, j)
					}
				}
			}
		}()
	}
}

// BenchmarkExtensionWorkers measures the parallel speedup of the IKNP
// hot path (column expansion, transpose, per-OT padding) at pinned
// worker counts. Setup (base OTs) is excluded from the timing.
func BenchmarkExtensionWorkers(b *testing.B) {
	const m = 4096
	const msgLen = 16
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))

			ca, cb := transport.Pair()
			defer ca.Close()
			defer cb.Close()
			var snd *Sender
			setup := make(chan error, 1)
			go func() {
				var err error
				snd, err = NewSender(ca)
				setup <- err
			}()
			rcv, err := NewReceiver(cb)
			if err != nil {
				b.Fatal(err)
			}
			if err := <-setup; err != nil {
				b.Fatal(err)
			}

			rng := rand.New(rand.NewSource(1))
			pairs := make([][2][]byte, m)
			choices := make([]bool, m)
			for j := range pairs {
				pairs[j][0] = make([]byte, msgLen)
				pairs[j][1] = make([]byte, msgLen)
				rng.Read(pairs[j][0])
				rng.Read(pairs[j][1])
				choices[j] = rng.Intn(2) == 1
			}

			b.SetBytes(int64(2 * m * msgLen))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sendErr := make(chan error, 1)
				go func() { sendErr <- snd.Send(pairs) }()
				if _, err := rcv.Receive(choices, msgLen); err != nil {
					b.Fatal(err)
				}
				if err := <-sendErr; err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
