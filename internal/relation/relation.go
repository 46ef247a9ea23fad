// Package relation provides annotated relations over the semiring
// framework of paper §3.1: every tuple carries an annotation from a
// commutative semiring; joins ⊗-multiply annotations and
// projection-aggregations ⊕-sum them. Attribute values are uint64 codes
// (dictionary codes, keys, or dates-as-days); the top of the value domain
// is reserved for dummy tuples, the zero-annotated padding rows that keep
// relation sizes public in the secure protocols (paper §4, footnote 2).
package relation

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// Attr names an attribute (column).
type Attr string

// MaxValue is the largest real attribute value: values in
// [DummyBase, 2^62) are reserved for dummy tuples, and values must stay
// below 2^62 so they embed into PSI elements (see package psi).
const (
	DummyBase = uint64(1) << 61
	MaxValue  = DummyBase - 1
)

// IsDummyValue reports whether v lies in the dummy region.
func IsDummyValue(v uint64) bool { return v >= DummyBase }

// DummyGen hands out fresh dummy attribute values, unique within one
// party's query execution. (Collisions between the two parties' dummies
// are harmless: at least one side of any dummy match is zero-annotated.)
type DummyGen struct {
	next uint64
}

// Next returns a fresh dummy value.
func (d *DummyGen) Next() uint64 {
	v := DummyBase + d.next
	d.next++
	// Unreachable from peer input: a generator starts after the dummies
	// of this party's own relations (NewDummyGenAfter), and a query draws
	// a number of dummies fixed by public sizes, which the protocol caps
	// at 2^40 each. Only own input already holding dummy values near the
	// top of the 2^61-value region can exhaust it.
	if v >= uint64(1)<<62 {
		panic("relation: dummy value space exhausted")
	}
	return v
}

// NewDummyGenAfter returns a generator whose values are disjoint from all
// dummy values already present in the given relations. The secure driver
// uses it so that pre-protocol padding (e.g. private selections, §7) and
// protocol-internal padding never collide within one party's data. A
// value at or above 2^62 lies outside the attribute domain (it cannot
// embed into a PSI element) and is an error.
func NewDummyGenAfter(rels ...*Relation) (*DummyGen, error) {
	var max uint64
	for _, r := range rels {
		if r == nil {
			continue
		}
		for _, row := range r.Tuples {
			for _, v := range row {
				if v >= uint64(1)<<62 {
					return nil, fmt.Errorf("relation: attribute value %#x outside the 62-bit domain", v)
				}
				if IsDummyValue(v) && v-DummyBase+1 > max {
					max = v - DummyBase + 1
				}
			}
		}
	}
	return &DummyGen{next: max}, nil
}

// Schema is an ordered list of attributes.
type Schema struct {
	Attrs []Attr
}

// NewSchema builds a schema, rejecting duplicate attributes.
func NewSchema(attrs ...Attr) (Schema, error) {
	seen := map[Attr]bool{}
	for _, a := range attrs {
		if seen[a] {
			return Schema{}, fmt.Errorf("relation: duplicate attribute %q", a)
		}
		seen[a] = true
	}
	return Schema{Attrs: attrs}, nil
}

// MustSchema is NewSchema for statically known attribute lists. Its panic
// is unreachable from peer input: schemas are public configuration each
// party builds locally (no message carries one), so a duplicate is a
// local configuration error, never a peer's doing.
func MustSchema(attrs ...Attr) Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Index returns the position of a, or -1.
func (s Schema) Index(a Attr) int {
	for i, x := range s.Attrs {
		if x == a {
			return i
		}
	}
	return -1
}

// Has reports whether the schema contains a.
func (s Schema) Has(a Attr) bool { return s.Index(a) >= 0 }

// Positions maps attribute names to column positions, failing on unknown
// names.
func (s Schema) Positions(attrs []Attr) ([]int, error) {
	out := make([]int, len(attrs))
	for i, a := range attrs {
		p := s.Index(a)
		if p < 0 {
			return nil, fmt.Errorf("relation: attribute %q not in schema %v", a, s.Attrs)
		}
		out[i] = p
	}
	return out, nil
}

// Intersect returns the attributes of s that appear in other, in s order.
func (s Schema) Intersect(other Schema) []Attr {
	var out []Attr
	for _, a := range s.Attrs {
		if other.Has(a) {
			out = append(out, a)
		}
	}
	return out
}

// Relation is an annotated relation: Tuples[i] is a row aligned with
// Schema.Attrs, Annot[i] its semiring annotation. In the secure protocols
// the annotation slice holds one party's additive share instead of the
// plaintext value; the container is the same.
type Relation struct {
	Schema Schema
	Tuples [][]uint64
	Annot  []uint64
}

// New returns an empty relation with the given schema.
func New(schema Schema) *Relation {
	return &Relation{Schema: schema}
}

// NewCap creates an empty relation with room for n tuples.
func NewCap(schema Schema, n int) *Relation {
	return &Relation{Schema: schema, Tuples: make([][]uint64, 0, n), Annot: make([]uint64, 0, n)}
}

// Append adds one tuple; row length must match the schema. A mismatch is
// a programming error, unreachable from peer input: rows decoded from
// peer messages are built at the schema's width from messages whose
// length the receiver checks first (transport.RecvUint64s, the circuit's
// fixed output count).
func (r *Relation) Append(row []uint64, annot uint64) {
	if len(row) != len(r.Schema.Attrs) {
		panic(fmt.Sprintf("relation: row width %d != schema width %d", len(row), len(r.Schema.Attrs)))
	}
	r.Tuples = append(r.Tuples, row)
	r.Annot = append(r.Annot, annot)
}

// Len returns the tuple count.
func (r *Relation) Len() int { return len(r.Tuples) }

// Clone deep-copies the relation.
func (r *Relation) Clone() *Relation {
	out := &Relation{Schema: r.Schema}
	out.Tuples = make([][]uint64, len(r.Tuples))
	for i, t := range r.Tuples {
		row := make([]uint64, len(t))
		copy(row, t)
		out.Tuples[i] = row
	}
	out.Annot = append([]uint64(nil), r.Annot...)
	return out
}

// IsDummy reports whether tuple i lies in the dummy region (any dummy
// column value marks the whole tuple).
func (r *Relation) IsDummy(i int) bool {
	for _, v := range r.Tuples[i] {
		if IsDummyValue(v) {
			return true
		}
	}
	return false
}

// Key builds the single-uint64 join key of tuple i over the columns cols.
// A single real column passes through unchanged (it already fits the PSI
// domain); composite keys are hashed into [0, DummyBase), which preserves
// equality and introduces collisions with probability < 2^-61 per pair —
// far below the protocol's statistical security budget. Any dummy column
// value makes the tuple's key its (unique) dummy value.
func (r *Relation) Key(i int, cols []int) uint64 {
	for _, c := range cols {
		if IsDummyValue(r.Tuples[i][c]) {
			return r.Tuples[i][c]
		}
	}
	if len(cols) == 1 {
		return r.Tuples[i][cols[0]]
	}
	return HashKey(r.Tuples[i], cols)
}

// HashKey hashes the selected columns of a row into the real key domain.
func HashKey(row []uint64, cols []int) uint64 {
	h := sha256.New()
	var buf [8]byte
	for _, c := range cols {
		binary.LittleEndian.PutUint64(buf[:], row[c])
		h.Write(buf[:])
	}
	var d [32]byte
	h.Sum(d[:0])
	return binary.LittleEndian.Uint64(d[:8]) & (DummyBase - 1)
}

// SortByColumns stably sorts tuples (with annotations) lexicographically
// by the given columns and returns the permutation applied: perm[newPos] =
// oldPos. The program walks SortPermByColumns instead; this materialized
// sort is the reference that tests, benchmark's among them, compare it to.
func (r *Relation) SortByColumns(cols []int) []int {
	idx := make([]int, r.Len())
	for i := range idx {
		idx[i] = i
	}
	stableSortBy(idx, r, cols)
	newTuples := make([][]uint64, r.Len())
	newAnnot := make([]uint64, r.Len())
	for newPos, oldPos := range idx {
		newTuples[newPos] = r.Tuples[oldPos]
		newAnnot[newPos] = r.Annot[oldPos]
	}
	r.Tuples = newTuples
	r.Annot = newAnnot
	return idx
}

// SortPermByColumns computes — without reordering or copying r — the
// permutation that SortByColumns would apply: a stable lexicographic
// sort by cols with perm[newPos] = oldPos. Walking perm (row :=
// r.Tuples[perm[i]]) visits r in sorted order without the cloned
// relation that Clone + SortByColumns would allocate.
func SortPermByColumns(r *Relation, cols []int) []int {
	idx := make([]int, r.Len())
	for i := range idx {
		idx[i] = i
	}
	stableSortBy(idx, r, cols)
	return idx
}

// DefaultChunkSize is kept only for the benchmark harness, which records
// it among its environment fields; nothing in the program reads it.
func DefaultChunkSize() int { return 4096 }

// stableSortBy stably sorts the index slice by the rows it references,
// lexicographically on cols — the single comparator shared by
// SortByColumns and SortPermByColumns, so both produce the identical
// permutation.
func stableSortBy(idx []int, r *Relation, cols []int) {
	sort.SliceStable(idx, func(a, b int) bool {
		ta, tb := r.Tuples[idx[a]], r.Tuples[idx[b]]
		for _, c := range cols {
			if ta[c] != tb[c] {
				return ta[c] < tb[c]
			}
		}
		return false
	})
}

// hashRow64 hashes the selected columns of a row to a uint64 for
// map-based grouping: an FNV-1a over the raw column values, allocation
// free (unlike the string keys it replaced). Callers must treat equal
// hashes as candidates and confirm with rowsMatchOn — unlike Key's
// 62-bit compression, grouping demands exactness.
func hashRow64(row []uint64, cols []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range cols {
		v := row[c]
		for b := 0; b < 8; b++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	return h
}

// rowsMatchOn reports whether row a on aCols equals row b on bCols
// (column lists of equal length) — the collision check behind hashRow64
// grouping.
func rowsMatchOn(a []uint64, aCols []int, b []uint64, bCols []int) bool {
	for i := range aCols {
		if a[aCols[i]] != b[bCols[i]] {
			return false
		}
	}
	return true
}

// groupIndex is a hash-keyed multimap from rows (projected to cols) to
// payload ints, with exact collision resolution: hashRow64 buckets the
// candidates and rowsMatchOn confirms them against the owning rows.
type groupIndex struct {
	rows    [][]uint64
	cols    []int
	buckets map[uint64][]int32 // hash → indices into rows/vals
	vals    []int
}

func newGroupIndex(cols []int, sizeHint int) *groupIndex {
	return &groupIndex{cols: cols, buckets: make(map[uint64][]int32, sizeHint)}
}

// lookup returns the payload stored for a row equal to row on rCols, or
// -1. rCols may differ from the index's own column list (probe side of
// a join).
func (g *groupIndex) lookup(row []uint64, rCols []int) int {
	for _, i := range g.buckets[hashRow64(row, rCols)] {
		if rowsMatchOn(g.rows[i], g.cols, row, rCols) {
			return g.vals[i]
		}
	}
	return -1
}

// lookupAll appends to dst every payload stored for rows equal to row
// on rCols.
func (g *groupIndex) lookupAll(dst []int, row []uint64, rCols []int) []int {
	for _, i := range g.buckets[hashRow64(row, rCols)] {
		if rowsMatchOn(g.rows[i], g.cols, row, rCols) {
			dst = append(dst, g.vals[i])
		}
	}
	return dst
}

// insert stores val under row (projected to the index's columns). The
// row is retained for collision checks.
func (g *groupIndex) insert(row []uint64, val int) {
	h := hashRow64(row, g.cols)
	g.buckets[h] = append(g.buckets[h], int32(len(g.rows)))
	g.rows = append(g.rows, row)
	g.vals = append(g.vals, val)
}

// Semiring abstracts the annotation algebra for the plaintext engine. The
// secure protocols fix the (Z_{2^ℓ}, +, ×) instance (their circuits
// implement ring arithmetic), which expresses SUM/COUNT aggregates and —
// via 0/1 annotations — boolean semantics.
type Semiring interface {
	Zero() uint64
	One() uint64
	Add(a, b uint64) uint64
	Mul(a, b uint64) uint64
}

// RingSemiring is (Z_{2^Bits}, +, ×).
type RingSemiring struct {
	Bits int
}

// Zero returns the additive identity.
func (r RingSemiring) Zero() uint64 { return 0 }

// One returns the multiplicative identity.
func (r RingSemiring) One() uint64 { return 1 }

// Add is addition modulo 2^Bits.
func (r RingSemiring) Add(a, b uint64) uint64 { return r.mask(a + b) }

// Mul is multiplication modulo 2^Bits.
func (r RingSemiring) Mul(a, b uint64) uint64 { return r.mask(a * b) }

// Sub is subtraction modulo 2^Bits. It is not part of the Semiring
// interface (semirings have no additive inverses) but the ring instance
// supports it, which the query compositions of paper §7 rely on.
func (r RingSemiring) Sub(a, b uint64) uint64 { return r.mask(a - b) }

func (r RingSemiring) mask(v uint64) uint64 {
	if r.Bits >= 64 {
		return v
	}
	return v & (1<<uint(r.Bits) - 1)
}

// BoolSemiring is ({0,1}, ∨, ∧), usable by the plaintext engine for
// set-semantics queries.
type BoolSemiring struct{}

// Zero returns false (0).
func (BoolSemiring) Zero() uint64 { return 0 }

// One returns true (1).
func (BoolSemiring) One() uint64 { return 1 }

// Add is logical OR.
func (BoolSemiring) Add(a, b uint64) uint64 {
	if a != 0 || b != 0 {
		return 1
	}
	return 0
}

// Mul is logical AND.
func (BoolSemiring) Mul(a, b uint64) uint64 {
	if a != 0 && b != 0 {
		return 1
	}
	return 0
}

// Project computes the annotated projection-aggregation π^⊕_attrs(r):
// distinct combinations of the requested attributes, each annotated with
// the ⊕-aggregate of its group (paper §3.1). Group order follows first
// appearance.
func (r *Relation) Project(attrs []Attr, sr Semiring) (*Relation, error) {
	cols, err := r.Schema.Positions(attrs)
	if err != nil {
		return nil, err
	}
	out := New(MustSchema(attrs...))
	pos := newGroupIndex(cols, r.Len())
	for i := range r.Tuples {
		if j := pos.lookup(r.Tuples[i], cols); j >= 0 {
			out.Annot[j] = sr.Add(out.Annot[j], r.Annot[i])
			continue
		}
		row := make([]uint64, len(cols))
		for c, cc := range cols {
			row[c] = r.Tuples[i][cc]
		}
		pos.insert(r.Tuples[i], out.Len())
		out.Append(row, r.Annot[i])
	}
	return out, nil
}

// ProjectOne computes π¹_attrs(r): the distinct attribute combinations of
// the *nonzero-annotated* tuples, all annotated with 1 (paper §3.1).
func (r *Relation) ProjectOne(attrs []Attr, sr Semiring) (*Relation, error) {
	cols, err := r.Schema.Positions(attrs)
	if err != nil {
		return nil, err
	}
	out := New(MustSchema(attrs...))
	seen := newGroupIndex(cols, r.Len())
	for i := range r.Tuples {
		if r.Annot[i] == sr.Zero() {
			continue
		}
		if seen.lookup(r.Tuples[i], cols) >= 0 {
			continue
		}
		seen.insert(r.Tuples[i], i)
		row := make([]uint64, len(cols))
		for c, cc := range cols {
			row[c] = r.Tuples[i][cc]
		}
		out.Append(row, sr.One())
	}
	return out, nil
}

// Join computes the annotated natural join r ⋈^⊗ s over their shared
// attributes; the result schema is r's attributes followed by s's
// non-shared attributes.
func (r *Relation) Join(s *Relation, sr Semiring) (*Relation, error) {
	shared := r.Schema.Intersect(s.Schema)
	rCols, err := r.Schema.Positions(shared)
	if err != nil {
		return nil, err
	}
	sCols, err := s.Schema.Positions(shared)
	if err != nil {
		return nil, err
	}
	var extraAttrs []Attr
	var extraCols []int
	for i, a := range s.Schema.Attrs {
		if !r.Schema.Has(a) {
			extraAttrs = append(extraAttrs, a)
			extraCols = append(extraCols, i)
		}
	}
	outSchema, err := NewSchema(append(append([]Attr{}, r.Schema.Attrs...), extraAttrs...)...)
	if err != nil {
		return nil, err
	}
	// Hash join: index the smaller side conceptually; here we index s.
	idx := newGroupIndex(sCols, s.Len())
	for j := range s.Tuples {
		idx.insert(s.Tuples[j], j)
	}
	out := New(outSchema)
	var matches []int
	for i := range r.Tuples {
		matches = idx.lookupAll(matches[:0], r.Tuples[i], rCols)
		for _, j := range matches {
			row := make([]uint64, 0, len(outSchema.Attrs))
			row = append(row, r.Tuples[i]...)
			for _, c := range extraCols {
				row = append(row, s.Tuples[j][c])
			}
			out.Append(row, sr.Mul(r.Annot[i], s.Annot[j]))
		}
	}
	return out, nil
}

// Semijoin computes the annotated semijoin r ⋉^⊗ s (paper §3.1): the
// tuples of r that join with at least one nonzero-annotated tuple of s,
// annotations unchanged.
func (r *Relation) Semijoin(s *Relation, sr Semiring) (*Relation, error) {
	shared := r.Schema.Intersect(s.Schema)
	proj, err := s.ProjectOne(shared, sr)
	if err != nil {
		return nil, err
	}
	cols, _ := proj.Schema.Positions(shared)
	keep := newGroupIndex(cols, proj.Len())
	for j := range proj.Tuples {
		keep.insert(proj.Tuples[j], j)
	}
	rCols, err := r.Schema.Positions(shared)
	if err != nil {
		return nil, err
	}
	out := New(r.Schema)
	for i := range r.Tuples {
		if keep.lookup(r.Tuples[i], rCols) >= 0 {
			out.Append(r.Tuples[i], r.Annot[i])
		}
	}
	return out, nil
}

// DropZeroAnnotated returns the tuples with nonzero annotation and no
// dummy values; used when presenting final results.
func (r *Relation) DropZeroAnnotated() *Relation {
	out := New(r.Schema)
	for i := range r.Tuples {
		if r.Annot[i] != 0 && !r.IsDummy(i) {
			out.Append(r.Tuples[i], r.Annot[i])
		}
	}
	return out
}

// Mask builds a query input from r without revealing its selectivity
// (paper §7, option 2): each row satisfying pred (every row when pred is
// nil) is projected to r's columns cols and annotated by annot, and
// every other row becomes a zero-annotated dummy of fresh dg values. The
// result has the given schema, one attribute per column, and r.Len()
// rows.
func (r *Relation) Mask(schema Schema, cols []int, pred func(row []uint64) bool,
	annot func(row []uint64) uint64, dg *DummyGen) *Relation {
	n, w := len(r.Tuples), len(cols)
	out := NewCap(schema, n)
	flat := make([]uint64, n*w) // one backing array; each row capped at its width
	for i, row := range r.Tuples {
		proj := flat[i*w : (i+1)*w : (i+1)*w]
		if pred == nil || pred(row) {
			for c, cc := range cols {
				proj[c] = row[cc]
			}
			out.Append(proj, annot(row))
			continue
		}
		for c := range proj {
			proj[c] = dg.Next()
		}
		out.Append(proj, 0)
	}
	return out
}

// String renders a small relation for debugging.
func (r *Relation) String() string {
	s := fmt.Sprintf("%v\n", r.Schema.Attrs)
	for i := range r.Tuples {
		s += fmt.Sprintf("%v @%d\n", r.Tuples[i], r.Annot[i])
	}
	return s
}
