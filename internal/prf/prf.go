// Package prf provides the symmetric primitives the protocols are built
// from: an AES-128-CTR pseudorandom generator, the fixed-key AES
// (MMO-style) hash family used by the garbled-circuit garbler, the IKNP
// OT-extension break-correlation step and the PSI bin hashing — single
// (HashBlock), batched (HashBlocks) and width-expanding (HashToWidthAES)
// — and SHA-256 hashing for the call site whose security model needs a
// full random oracle (the base OTs extract seeds from Diffie–Hellman
// points on P-256, outside the fixed-permutation
// correlation-robustness model).
//
// Every MMO call site shares one public fixed-key permutation π; the
// 64-bit tweak space is partitioned between them by the Site* constants
// (see fixedkey.go for the scheme). The computational security
// parameter κ is 128 bits throughout, matching the paper's experimental
// setup (§8.2).
package prf

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
)

// SeedSize is the byte length of PRG seeds and garbled-circuit wire labels
// (κ = 128 bits).
const SeedSize = 16

// Seed is a κ-bit PRG seed.
type Seed [SeedSize]byte

// RandomSeed draws a fresh seed from the operating system entropy source.
func RandomSeed() Seed {
	var s Seed
	if _, err := rand.Read(s[:]); err != nil {
		panic("prf: system entropy source failed: " + err.Error())
	}
	return s
}

// PRG is a deterministic pseudorandom generator: AES-128 in counter mode
// keyed by a seed. Distinct seeds yield computationally independent
// streams.
type PRG struct {
	stream cipher.Stream
	buf    [8]byte
}

// NewPRG returns a generator producing the stream determined by seed.
func NewPRG(seed Seed) *PRG {
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		panic("prf: aes.NewCipher: " + err.Error())
	}
	var iv [aes.BlockSize]byte
	return &PRG{stream: cipher.NewCTR(block, iv[:])}
}

// Read fills p with pseudorandom bytes. It never fails.
func (g *PRG) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	g.stream.XORKeyStream(p, p)
	return len(p), nil
}

// Bytes returns n fresh pseudorandom bytes.
func (g *PRG) Bytes(n int) []byte {
	p := make([]byte, n)
	g.stream.XORKeyStream(p, p)
	return p
}

// Uint64 returns a fresh pseudorandom 64-bit value.
func (g *PRG) Uint64() uint64 {
	for i := range g.buf {
		g.buf[i] = 0
	}
	g.stream.XORKeyStream(g.buf[:], g.buf[:])
	return binary.LittleEndian.Uint64(g.buf[:])
}

// Uint64n returns a pseudorandom value in [0, n) with negligible bias.
// It panics if n is zero.
func (g *PRG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prf: Uint64n(0)")
	}
	// Rejection sampling over the largest multiple of n.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := g.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Bool returns a pseudorandom bit.
func (g *PRG) Bool() bool { return g.Uint64()&1 == 1 }

// Seed derives a fresh child seed from the stream.
func (g *PRG) Seed() Seed {
	var s Seed
	g.stream.XORKeyStream(s[:], s[:])
	// The all-zero keystream block would only occur with probability 2^-128.
	return s
}

// Perm returns a pseudorandom permutation of [0, n) via Fisher–Yates.
func (g *PRG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(g.Uint64n(uint64(i + 1)))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Hash computes a SHA-256 digest over a domain-separation tag and the
// concatenation of the inputs.
func Hash(domain uint64, data ...[]byte) [32]byte {
	h := sha256.New()
	var tag [8]byte
	binary.LittleEndian.PutUint64(tag[:], domain)
	h.Write(tag[:])
	for _, d := range data {
		h.Write(d)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// HashInto writes the first len(dst) bytes (at most 32) of
// Hash(domain, data) into dst. It produces exactly the same digest as
// Hash but avoids the streaming interface, so the OT pad-derivation hot
// loop runs without heap allocations; data must also be small enough
// (≤ 64 bytes) to fit the inline buffer — deliberately, since calling
// Hash here would make every caller's data argument escape.
func HashInto(dst []byte, domain uint64, data []byte) {
	if len(dst) > 32 {
		panic("prf: HashInto destination exceeds one digest")
	}
	var buf [72]byte
	if 8+len(data) > len(buf) {
		panic("prf: HashInto input exceeds inline buffer")
	}
	binary.LittleEndian.PutUint64(buf[:8], domain)
	n := 8 + copy(buf[8:], data)
	h := sha256.Sum256(buf[:n])
	copy(dst, h[:len(dst)])
}

// HashToWidth expands Hash(domain, data...) to n bytes using the digest as
// an AES-CTR seed. It is used to derive one-time pads of arbitrary length
// from OT instances.
func HashToWidth(domain uint64, n int, data ...[]byte) []byte {
	d := Hash(domain, data...)
	var seed Seed
	copy(seed[:], d[:SeedSize])
	return NewPRG(seed).Bytes(n)
}

// XORBytes sets dst = a ^ b elementwise. All three must have equal length.
func XORBytes(dst, a, b []byte) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("prf: XORBytes length mismatch")
	}
	subtle.XORBytes(dst, a, b)
}
