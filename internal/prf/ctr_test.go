package prf

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math/rand"
	"testing"
)

// refKeyStream is crypto/cipher's AES-CTR keystream under key: n bytes
// from byte offset off, the IV set to the counter of off's block.
func refKeyStream(key Seed, off uint64, n int) []byte {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err)
	}
	var iv [16]byte
	binary.BigEndian.PutUint64(iv[8:], off/16)
	out := make([]byte, int(off%16)+n)
	cipher.NewCTR(block, iv[:]).XORKeyStream(out, out)
	return out[off%16:]
}

// keystreamPaths runs f once per CTR implementation on this machine: the
// 8-wide AESENC kernel when AES-NI is present, and the cipher.Block
// fallback, forced by clearing hasAES8 before the key is built.
func keystreamPaths(t testing.TB, f func(t testing.TB, path string)) {
	saved := hasAES8
	defer func() { hasAES8 = saved }()
	if saved {
		f(t, "aes8")
	}
	hasAES8 = false
	f(t, "generic")
}

// TestKeyStreamMatchesCipherCTR checks random-access keystream reads at
// block-aligned and unaligned offsets and lengths across the 8-block
// kernel boundary against crypto/cipher: the schedules NewCTR expands
// (in assembly on the aes8 path) and the reads that encrypt whole
// 8-block runs straight into dst.
func TestKeyStreamMatchesCipherCTR(t *testing.T) {
	keystreamPaths(t, func(t testing.TB, path string) {
		rng := rand.New(rand.NewSource(1))
		for trial := 0; trial < 200; trial++ {
			var key Seed
			rng.Read(key[:])
			c := NewCTR(key)
			off := uint64(rng.Intn(1000))
			if trial%10 == 0 {
				off = rng.Uint64() >> 5
			}
			if trial%3 == 0 {
				off &^= 15
			}
			n := rng.Intn(300)
			got := make([]byte, n)
			c.KeyStream(got, off)
			if want := refKeyStream(key, off, n); !bytes.Equal(got, want) {
				t.Fatalf("%s: key %x off %d n %d: keystream differs from crypto/cipher", path, key, off, n)
			}
		}
	})
}

// TestPRGMatchesCipherCTR interleaves every PRG read — Read, Bytes,
// Uint64, Bool, Seed — at sizes around the 128-byte buffer and checks the
// concatenation against crypto/cipher's CTR stream under the seed: the
// generator is the same AES-CTR stream it was before it had a buffer.
func TestPRGMatchesCipherCTR(t *testing.T) {
	keystreamPaths(t, func(t testing.TB, path string) {
		rng := rand.New(rand.NewSource(2))
		seed := Seed{7, 7, 7}
		g := NewPRG(seed)
		var got []byte
		for len(got) < 20000 {
			switch rng.Intn(5) {
			case 0:
				p := make([]byte, rng.Intn(300))
				g.Read(p)
				got = append(got, p...)
			case 1:
				got = append(got, g.Bytes(rng.Intn(140))...)
			case 2:
				got = binary.LittleEndian.AppendUint64(got, g.Uint64())
			case 3:
				// Bool is the low bit of one Uint64: 8 bytes of stream.
				want := refKeyStream(seed, uint64(len(got)), 8)
				if g.Bool() != (want[0]&1 == 1) {
					t.Fatalf("%s: Bool at stream offset %d", path, len(got))
				}
				got = append(got, want...)
			case 4:
				s := g.Seed()
				got = append(got, s[:]...)
			}
		}
		if want := refKeyStream(seed, 0, len(got)); !bytes.Equal(got, want) {
			t.Fatalf("%s: mixed PRG reads differ from crypto/cipher's CTR stream", path)
		}
	})
}

// TestKeyStreamZeroAlloc pins that keystream reads allocate nothing on
// either path: IKNP calls KeyStream twice per column per batch.
func TestKeyStreamZeroAlloc(t *testing.T) {
	keystreamPaths(t, func(t testing.TB, path string) {
		c := NewCTR(Seed{9})
		dst := make([]byte, 515)
		off := uint64(3)
		if n := testing.AllocsPerRun(20, func() {
			c.KeyStream(dst, off)
			off += 515
		}); n != 0 {
			t.Fatalf("%s: KeyStream allocates %.1f objects per call", path, n)
		}
		g := NewPRG(Seed{9})
		if n := testing.AllocsPerRun(20, func() { g.Uint64(); g.Seed(); g.Read(dst) }); n != 0 {
			t.Fatalf("%s: PRG reads allocate %.1f objects per call", path, n)
		}
	})
}

// FuzzKeyStream compares KeyStream at any offset and length, on both
// paths, with crypto/cipher's CTR started at the same counter.
func FuzzKeyStream(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), uint64(0), uint16(128))
	f.Add([]byte{1}, uint64(15), uint16(1))
	f.Add([]byte{}, uint64(1)<<40+7, uint16(300))
	f.Fuzz(func(t *testing.T, seed []byte, off uint64, n uint16) {
		var key Seed
		copy(key[:], seed)
		off >>= 4 // keep the block counter clear of 64-bit wraparound
		want := refKeyStream(key, off, int(n))
		keystreamPaths(t, func(t testing.TB, path string) {
			c := NewCTR(key)
			got := make([]byte, n)
			c.KeyStream(got, off)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: key %x off %d n %d: keystream differs from crypto/cipher", path, key, off, n)
			}
		})
	})
}
