package relation

// Chunk-oriented streaming over annotated relations. A Scanner yields a
// relation as a sequence of bounded Chunks — views of at most ChunkSize
// tuples with their annotations — and a ChunkWriter accumulates chunks
// back into a relation. The executor's operators consume relations
// through scanners so their tuple-plane working set is O(chunk), not
// O(relation); the in-memory adapters here make every existing
// *Relation usable unchanged.
//
// Streaming is deliberately a local, data-plane restructuring: chunk
// boundaries never cross or alter protocol messages, which is what
// makes execution transcript-invariant in the chunk size (see DESIGN.md
// §12 and the chunk-invariance equivalence suites).

import (
	"fmt"
	"io"
	"math"
)

// Unbounded disables chunking: the whole relation forms a single chunk,
// reproducing fully materialized execution.
const Unbounded = -1

// defaultChunkSize is the chunk size used when a caller passes chunk
// size 0 ("use the default"). 4096 tuples keeps the tuple plane
// comfortably inside cache while amortizing per-chunk overhead.
const defaultChunkSize = 4096

// DefaultChunkSize returns the default chunk size.
func DefaultChunkSize() int { return defaultChunkSize }

// EffectiveChunkSize resolves a chunk-size parameter to a positive
// tuple count: 0 means the default, any negative value means no bound.
func EffectiveChunkSize(chunk int) int {
	if chunk == 0 {
		chunk = defaultChunkSize
	}
	if chunk <= 0 {
		return math.MaxInt
	}
	return chunk
}

// NumChunks returns the number of chunk-sized windows covering n tuples
// under the given chunk-size parameter (0 for n == 0).
func NumChunks(n, chunk int) int {
	if n <= 0 {
		return 0
	}
	c := EffectiveChunkSize(chunk)
	if c >= n {
		return 1
	}
	return (n + c - 1) / c
}

// Range invokes fn over successive index windows [lo, hi) of at most
// the effective chunk size, covering [0, n). It is the index-plane
// counterpart of a Scanner, for loops that stride over positions rather
// than tuples.
func Range(n, chunk int, fn func(lo, hi int) error) error {
	c := EffectiveChunkSize(chunk)
	for lo := 0; lo < n; lo += c {
		hi := lo + c
		if hi > n {
			hi = n
		}
		if err := fn(lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// Chunk is one bounded batch of a streamed relation: row views (not
// copies) aligned with Schema, plus their annotations. Consumers must
// not retain Tuples or Annot past the next Scanner.Next call.
type Chunk struct {
	Schema Schema
	Tuples [][]uint64
	Annot  []uint64
	// Base is the position of Tuples[0] in the streamed relation.
	Base int
}

// Len returns the chunk's tuple count.
func (c *Chunk) Len() int { return len(c.Tuples) }

// Scanner streams a relation as bounded chunks. Next returns io.EOF
// after the last chunk; the returned chunk is only valid until the
// following Next call.
type Scanner interface {
	Next() (*Chunk, error)
}

// ChunkWriter consumes a stream of chunks.
type ChunkWriter interface {
	Write(c *Chunk) error
}

// Copy pumps scanner s into writer w, returning the tuple count moved.
func Copy(w ChunkWriter, s Scanner) (int, error) {
	n := 0
	for {
		ch, err := s.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := w.Write(ch); err != nil {
			return n, err
		}
		n += ch.Len()
	}
}

// memScanner streams an in-memory relation by subslicing — zero copies.
type memScanner struct {
	r     *Relation
	chunk int
	pos   int
	cur   Chunk
}

// NewScanner returns a Scanner over r yielding chunks of at most the
// effective chunk size (see EffectiveChunkSize for the 0/negative
// conventions). Chunks are subslice views of r.
func NewScanner(r *Relation, chunk int) Scanner {
	return &memScanner{r: r, chunk: EffectiveChunkSize(chunk)}
}

func (s *memScanner) Next() (*Chunk, error) {
	if s.pos >= s.r.Len() {
		return nil, io.EOF
	}
	hi := s.pos + s.chunk
	if hi > s.r.Len() || hi < 0 { // hi < 0: MaxInt overflow
		hi = s.r.Len()
	}
	s.cur = Chunk{Schema: s.r.Schema, Tuples: s.r.Tuples[s.pos:hi], Annot: s.r.Annot[s.pos:hi], Base: s.pos}
	s.pos = hi
	return &s.cur, nil
}

// permScanner streams a relation in permuted order without materializing
// the permuted relation: each chunk holds row references gathered
// through perm into reused O(chunk) buffers.
type permScanner struct {
	r     *Relation
	perm  []int
	annot []uint64 // source annotations, indexed pre-permutation; nil → r.Annot
	chunk int
	pos   int

	rows []([]uint64)
	ann  []uint64
	cur  Chunk
}

// NewPermScanner returns a Scanner yielding r's tuples in the order
// given by perm (perm[newPos] = oldPos, the convention of
// SortByColumns), with annotations drawn through perm from annot (or
// from r.Annot when annot is nil). Rows are references into r; only the
// chunk's reference and annotation buffers are allocated, and they are
// reused across chunks.
func NewPermScanner(r *Relation, perm []int, annot []uint64, chunk int) Scanner {
	if annot == nil {
		annot = r.Annot
	}
	c := EffectiveChunkSize(chunk)
	if c > len(perm) {
		c = len(perm)
	}
	return &permScanner{r: r, perm: perm, annot: annot, chunk: c,
		rows: make([][]uint64, 0, c), ann: make([]uint64, 0, c)}
}

func (s *permScanner) Next() (*Chunk, error) {
	if s.pos >= len(s.perm) {
		return nil, io.EOF
	}
	hi := s.pos + s.chunk
	if hi > len(s.perm) || hi < 0 {
		hi = len(s.perm)
	}
	s.rows = s.rows[:0]
	s.ann = s.ann[:0]
	for _, old := range s.perm[s.pos:hi] {
		s.rows = append(s.rows, s.r.Tuples[old])
		s.ann = append(s.ann, s.annot[old])
	}
	s.cur = Chunk{Schema: s.r.Schema, Tuples: s.rows, Annot: s.ann, Base: s.pos}
	s.pos = hi
	return &s.cur, nil
}

// MemWriter accumulates chunks into an in-memory relation — the adapter
// that lets chunk-producing code feed existing *Relation consumers.
type MemWriter struct {
	Rel *Relation
}

// NewMemWriter returns a writer accumulating into a fresh relation over
// schema.
func NewMemWriter(schema Schema) *MemWriter {
	return &MemWriter{Rel: New(schema)}
}

// Write appends the chunk's tuples. Rows are appended by reference —
// the writer's relation aliases the source rows, matching the zero-copy
// convention of the operators (Filter, Semijoin) that already share row
// storage.
func (w *MemWriter) Write(c *Chunk) error {
	if len(c.Tuples) != len(c.Annot) {
		return fmt.Errorf("relation: chunk with %d tuples but %d annotations", len(c.Tuples), len(c.Annot))
	}
	for i, row := range c.Tuples {
		w.Rel.Append(row, c.Annot[i])
	}
	return nil
}

// SortPermByColumns computes — without reordering or copying r — the
// permutation that SortByColumns would apply: a stable lexicographic
// sort by cols with perm[newPos] = oldPos. Streaming r through
// NewPermScanner(r, perm, ...) then yields the sorted view with an
// O(chunk) tuple-plane working set instead of SortByColumns' cloned
// relation.
func SortPermByColumns(r *Relation, cols []int) []int {
	idx := make([]int, r.Len())
	for i := range idx {
		idx[i] = i
	}
	stableSortBy(idx, r, cols)
	return idx
}
