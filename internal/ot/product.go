package ot

import (
	"encoding/binary"
	"fmt"

	"secyan/internal/parallel"
	"secyan/internal/prf"
	"secyan/internal/transport"
)

// This file is the product batch: Gilboa's OT-based product of two ℓ-bit
// words, at its information width as ABY packs its multiplication
// triples (Demmler–Schneider–Zohner, NDSS 2015). One term multiplies the
// receiver's word b by the sender's word a: OT k (k = 0 … ℓ − 1) runs on
// bit k of b and offers, over the low ℓ − k bits r of its sender's pad,
//
//	x0 = r,  x1 = r + a  (mod 2^(ℓ−k)).
//
// The receiver adds x_{b_k}·2^k to its sum and the sender subtracts r·2^k
// from its own, so modulo 2^ℓ the two sums add up to Σ b_k·a·2^k = a·b.
// The low k bits of a·2^k are zero and its high bits vanish mod 2^ℓ,
// which is why OT k carries ℓ − k bits: a term is ℓ(ℓ+1)/2 bits of reply
// instead of ℓ². OT 0's r is uniform on all ℓ bits, so the sender's sum
// is a uniform share.
//
// A batch of n products of `terms` terms each runs terms·n·ℓ OTs, OT j =
// (i·terms + t)·ℓ + k for bit k of term t of product i, and gives each
// party its share of Σ_t a_t·b_t for every product. The OTs are random
// OTs on the receiver's choices (random.go), direct or derandomized from
// a pooled batch of ProductBatch's shape. The sender's one reply packs
// the correction y_j = x1_j ⊕ (low ℓ − k bits of r¹_j) of every OT, in
// order, LSB first. The pads are hashed straight into the sums: besides
// the receiver's T, the packed choices and the two messages, a batch
// allocates its n sums and, on a direct sender, two words per tile.

// ProductBatch returns the shape of the random-OT batch that a product
// batch of n products of `terms` terms at width ell runs: terms·n·ell
// OTs, pooled with ⌈ell/8⌉-byte pads. A pooled product batch
// derandomizes a FillRandom batch of this shape.
func ProductBatch(n, ell, terms int) (m, msgLen int) { return terms * n * ell, (ell + 7) / 8 }

// productReplyBytes is the length of a product batch's reply: ℓ(ℓ+1)/2
// bits per term, packed.
func productReplyBytes(n, ell, terms int) int64 {
	return (int64(terms)*int64(n)*int64(ell*(ell+1)/2) + 7) / 8
}

// productLayout locates a batch's OTs in its terms and its reply.
type productLayout struct {
	ell, terms int
	termBits   int // reply bits per term, ℓ(ℓ+1)/2
}

// productDims checks a batch's factors — terms ≥ 1 vectors of equal
// length n at width 1 ≤ ell ≤ 64 — and returns its layout and n.
func productDims(ell int, words [][]uint64) (productLayout, int, error) {
	if ell < 1 || ell > 64 || len(words) == 0 {
		return productLayout{}, 0, fmt.Errorf("ot: product batch of %d terms at width %d", len(words), ell)
	}
	for _, w := range words[1:] {
		if len(w) != len(words[0]) {
			return productLayout{}, 0, fmt.Errorf("ot: product terms of %d and %d words", len(words[0]), len(w))
		}
	}
	return productLayout{ell: ell, terms: len(words), termBits: ell * (ell + 1) / 2}, len(words[0]), nil
}

// productCursor is one OT of a batch: bit k of term t of product i,
// whose correction starts at bit off of the reply.
type productCursor struct{ i, t, k, off int }

// at returns the cursor of OT j.
func (l productLayout) at(j int) productCursor {
	g, k := j/l.ell, j%l.ell
	return productCursor{i: g / l.terms, t: g % l.terms, k: k, off: g*l.termBits + k*l.ell - k*(k-1)/2}
}

// next moves c to the following OT.
func (l productLayout) next(c *productCursor) {
	c.off += l.ell - c.k
	if c.k++; c.k == l.ell {
		c.k = 0
		if c.t++; c.t == l.terms {
			c.t = 0
			c.i++
		}
	}
}

// lowBits is the mask of the w low bits, 1 ≤ w ≤ 64.
func lowBits(w int) uint64 { return ^uint64(0) >> (64 - w) }

// orBits ORs v, at most w bits wide, into dst at bit offset off, LSB
// first.
func orBits(dst []byte, off, w int, v uint64) {
	for w > 0 {
		s := off % 8
		dst[off/8] |= byte(v << s)
		v >>= 8 - s
		off += 8 - s
		w -= 8 - s
	}
}

// readBits returns the w bits of src at bit offset off.
func readBits(src []byte, off, w int) uint64 {
	var v uint64
	for got := 0; got < w; {
		s := off % 8
		v |= uint64(src[off/8]>>s) << got
		got += 8 - s
		off += 8 - s
	}
	return v & lowBits(w)
}

// padWord reads a pooled pad of msgLen ≤ 8 bytes as a word.
func padWord(pad []byte) uint64 {
	var w [8]byte
	copy(w[:], pad)
	return binary.LittleEndian.Uint64(w[:])
}

// tileOTs is the number of OTs of one sender tile (eachTile).
const tileOTs = 8 * tileBytes

// productSend is a product batch as its sender runs it.
type productSend struct {
	productLayout
	a     [][]uint64 // the sender's factors, term by term
	sums  []uint64
	reply []byte
	// A direct batch's tiles run concurrently (Sender.expand). The
	// product that straddles the start of tile τ, and the reply byte its
	// first bits share with tile τ − 1, are written by two tiles, so
	// tile τ keeps its part of each apart, in edgeSum[τ] and
	// edgeBits[τ], for edges to merge once every tile is done.
	edgeSum  []uint64
	edgeBits []byte
}

// send subtracts the pads of OTs [j, j+len(p0)) from the sums and packs
// their corrections: p0[q] and p1[q] are OT j+q's pads r⁰ and r¹. tile
// is the tile the OTs lie in when tiles run concurrently, else -1.
func (p *productSend) send(j int, p0, p1 []uint64, tile int) {
	edgeProduct, edgeByte := -1, -1
	if tile > 0 {
		j0 := tile * tileOTs
		if i0 := j0 / (p.terms * p.ell); i0*p.terms*p.ell < j0 {
			edgeProduct = i0
		}
		if e := p.at(j0).off; e%8 != 0 {
			edgeByte = e / 8
		}
	}
	c := p.at(j)
	for q := range p0 {
		w := p.ell - c.k
		mask := lowBits(w)
		x0 := p0[q] & mask
		y := ((x0 + p.a[c.t][c.i]) ^ p1[q]) & mask
		if c.i == edgeProduct {
			p.edgeSum[tile] -= x0 << c.k
		} else {
			p.sums[c.i] -= x0 << c.k
		}
		off := c.off
		if off/8 == edgeByte {
			s := off % 8
			p.edgeBits[tile] |= byte(y << s)
			y >>= 8 - s
			off += 8 - s
			w -= 8 - s
		}
		orBits(p.reply, off, w, y)
		p.next(&c)
	}
}

// put is Sender.expand's sink for a direct batch: it hashes both pads of
// the rows of OTs [base, base+n) and sends them.
func (p *productSend) put(rows *[padBatch]prf.Block, n, base int, delta *[kappa / 8]byte, w prf.Word, idx uint64) {
	var h [padBatch]prf.Block
	var p0, p1 [padBatch]uint64
	w.HashBlocks(h[:n], rows[:n], otTweak(idx+uint64(base)), 1)
	for q := range h[:n] {
		p0[q] = binary.LittleEndian.Uint64(h[q][:8])
		prf.XORBytes(rows[q][:], rows[q][:], delta[:])
	}
	w.HashBlocks(h[:n], rows[:n], otTweak(idx+uint64(base)), 1)
	for q := range h[:n] {
		p1[q] = binary.LittleEndian.Uint64(h[q][:8])
	}
	p.send(base, p0[:n], p1[:n], base/tileOTs)
}

// edges merges every tile's parts of the product and the reply byte it
// shares with the tile before it.
func (p *productSend) edges() {
	for tile := 1; tile < len(p.edgeSum); tile++ {
		j0 := tile * tileOTs
		p.sums[j0/(p.terms*p.ell)] += p.edgeSum[tile]
		p.reply[p.at(j0).off/8] |= p.edgeBits[tile]
	}
}

// SendProducts runs a product batch as its sender: a[t][i] is its factor
// of term t of product i, every a[t] of one length n. It returns its
// share of Σ_t a[t][i]·b[t][i] mod 2^ell for every product, where b are
// the peer's factors (ReceiveProducts), uniform on its own. A direct
// batch moves ProductCost(n, ell, terms) bytes, a pooled one
// ProductOnlineCost; either is one message each way.
func (s *Sender) SendProducts(ell int, a ...[]uint64) ([]uint64, error) {
	l, n, err := productDims(ell, a)
	if err != nil || n == 0 {
		return nil, err
	}
	m, msgLen := ProductBatch(n, ell, l.terms)
	b, sp := s.pool.open(m, msgLen, kExtSend, kDerandSend)
	defer sp.EndN(int64(m))
	p := &productSend{productLayout: l, a: a, sums: make([]uint64, n), reply: make([]byte, productReplyBytes(n, ell, l.terms))}
	if b == nil {
		tiles := (int(padTo64(m)) + tileOTs - 1) / tileOTs
		p.edgeSum, p.edgeBits = make([]uint64, tiles), make([]byte, tiles)
		if err := s.expand(m, &rowSink{prod: p, word: s.Word(), idx: s.idx}); err != nil {
			return nil, err
		}
		s.idx += padTo64(m)
		p.edges()
	} else {
		d, err := transport.RecvSized(s.conn, "ot: derandomization corrections", (m+7)/8)
		if err != nil {
			return nil, err
		}
		var p0, p1 [padBatch]uint64
		for j := 0; j < m; j += padBatch {
			cnt := min(padBatch, m-j)
			for q := range cnt {
				r0, r1 := b.r0[(j+q)*msgLen:(j+q+1)*msgLen], b.r1[(j+q)*msgLen:(j+q+1)*msgLen]
				if d[(j+q)/8]>>((j+q)%8)&1 == 1 {
					r0, r1 = r1, r0
				}
				p0[q], p1[q] = padWord(r0), padWord(r1)
			}
			p.send(j, p0[:cnt], p1[:cnt], -1)
		}
	}
	for i := range p.sums {
		p.sums[i] &= lowBits(ell)
	}
	return p.sums, s.conn.Send(p.reply)
}

// productRecv is a product batch as its receiver opens it.
type productRecv struct {
	productLayout
	x     []byte // the packed choices, bit j of OT j
	reply []byte
	sums  []uint64
}

// open adds to the sums the chosen messages of OTs [j, j+len(pads)),
// whose pads are pads: a pad's low ℓ − k bits, corrected by the reply
// where the choice is 1, times 2^k.
func (p *productRecv) open(j int, pads []uint64) {
	c := p.at(j)
	for q, pad := range pads {
		w := p.ell - c.k
		v := pad & lowBits(w)
		if p.x[(j+q)/8]>>((j+q)%8)&1 == 1 {
			v ^= readBits(p.reply, c.off, w)
		}
		p.sums[c.i] += v << c.k
		p.next(&c)
	}
}

// ReceiveProducts is the receiver half of SendProducts: b[t][i] is its
// factor of term t of product i, whose bits are its choices. It returns
// its share of Σ_t a[t][i]·b[t][i] mod 2^ell for every product. The
// sender's reply must be exactly the batch's length, or it is a
// *transport.SizeError before anything is derived from it.
func (r *Receiver) ReceiveProducts(ell int, b ...[]uint64) ([]uint64, error) {
	l, n, err := productDims(ell, b)
	if err != nil || n == 0 {
		return nil, err
	}
	m, msgLen := ProductBatch(n, ell, l.terms)
	p := &productRecv{productLayout: l, x: make([]byte, padTo64(m)/8)}
	for i := 0; i < n; i++ {
		for t, bt := range b {
			orBits(p.x, (i*l.terms+t)*ell, ell, bt[i]&lowBits(ell))
		}
	}
	pb, sp := r.pool.open(m, msgLen, kExtRecv, kDerandRecv)
	defer sp.EndN(int64(m))
	var cols []byte
	var rowBytes int
	idx := r.idx
	if pb == nil {
		if cols, _, rowBytes, err = r.expandBits(p.x, 0); err != nil {
			return nil, err
		}
		r.idx += padTo64(m)
	} else {
		d := make([]byte, (m+7)/8)
		for j, bj := range pb.bits {
			if (p.x[j/8]>>(j%8)&1 == 1) != bj {
				d[j/8] |= 1 << (j % 8)
			}
		}
		if err := r.conn.Send(d); err != nil {
			return nil, err
		}
	}
	if p.reply, err = transport.RecvSized(r.conn, "ot: product corrections", int(productReplyBytes(n, ell, l.terms))); err != nil {
		return nil, err
	}
	p.sums = make([]uint64, n)
	if pb != nil {
		var pads [padBatch]uint64
		for j := 0; j < m; j += padBatch {
			cnt := min(padBatch, m-j)
			for q := range cnt {
				pads[q] = padWord(pb.rc[(j+q)*msgLen : (j+q+1)*msgLen])
			}
			p.open(j, pads[:cnt])
		}
	} else {
		// Workers take whole products, so each writes its own sums; a
		// block of rows two of them share is transposed by both.
		per, w := l.terms*ell, r.Word()
		parallel.For(n, max(1, tileOTs/per), func(lo, hi int) {
			var rows, h [padBatch]prf.Block
			var pads [padBatch]uint64
			for j, end := lo*per, hi*per; j < end; {
				base := j &^ (padBatch - 1)
				cnt := min(base+padBatch, end) - j
				blockRows(prf.BlockBytes(rows[:min(padBatch, m-base)]), cols, kappa, rowBytes, base)
				w.HashBlocks(h[:cnt], rows[j-base:j-base+cnt], otTweak(idx+uint64(j)), 1)
				for q := range cnt {
					pads[q] = binary.LittleEndian.Uint64(h[q][:8])
				}
				p.open(j, pads[:cnt])
				j += cnt
			}
		})
	}
	for i := range p.sums {
		p.sums[i] &= lowBits(ell)
	}
	return p.sums, nil
}
