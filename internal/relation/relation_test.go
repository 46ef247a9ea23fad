package relation

import (
	"math/rand"
	"testing"
	"testing/quick"
)

var ring = RingSemiring{Bits: 32}

func TestSchemaBasics(t *testing.T) {
	s := MustSchema("a", "b", "c")
	if s.Index("b") != 1 || s.Index("z") != -1 || !s.Has("c") || s.Has("z") {
		t.Fatal("schema lookup broken")
	}
	if _, err := NewSchema("a", "a"); err == nil {
		t.Fatal("duplicate attribute accepted")
	}
	pos, err := s.Positions([]Attr{"c", "a"})
	if err != nil || pos[0] != 2 || pos[1] != 0 {
		t.Fatalf("Positions: %v %v", pos, err)
	}
	if _, err := s.Positions([]Attr{"zzz"}); err == nil {
		t.Fatal("unknown attr accepted")
	}
	inter := MustSchema("b", "c", "d").Intersect(s)
	if len(inter) != 2 || inter[0] != "b" || inter[1] != "c" {
		t.Fatalf("Intersect: %v", inter)
	}
}

func TestAppendAndClone(t *testing.T) {
	r := New(MustSchema("a", "b"))
	r.Append([]uint64{1, 2}, 7)
	c := r.Clone()
	c.Tuples[0][0] = 99
	c.Annot[0] = 0
	if r.Tuples[0][0] != 1 || r.Annot[0] != 7 {
		t.Fatal("Clone did not deep-copy")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad row width")
		}
	}()
	r.Append([]uint64{1}, 1)
}

func TestProjectAggregates(t *testing.T) {
	r := New(MustSchema("g", "x"))
	r.Append([]uint64{1, 10}, 5)
	r.Append([]uint64{1, 11}, 7)
	r.Append([]uint64{2, 12}, 9)
	p, err := r.Project([]Attr{"g"}, ring)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("groups: %d", p.Len())
	}
	m := map[uint64]uint64{}
	for i := range p.Tuples {
		m[p.Tuples[i][0]] = p.Annot[i]
	}
	if m[1] != 12 || m[2] != 9 {
		t.Fatalf("aggregates: %v", m)
	}
	// Empty projection = grand total.
	tot, err := r.Project(nil, ring)
	if err != nil {
		t.Fatal(err)
	}
	if tot.Len() != 1 || tot.Annot[0] != 21 {
		t.Fatalf("grand total: %v", tot)
	}
}

func TestProjectOne(t *testing.T) {
	r := New(MustSchema("g", "x"))
	r.Append([]uint64{1, 10}, 5)
	r.Append([]uint64{1, 11}, 0) // zero-annotated: ignored
	r.Append([]uint64{2, 12}, 0)
	p, err := r.ProjectOne([]Attr{"g"}, ring)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1 || p.Tuples[0][0] != 1 || p.Annot[0] != 1 {
		t.Fatalf("ProjectOne: %v", p)
	}
}

func TestJoinAnnotationsMultiply(t *testing.T) {
	r := New(MustSchema("a", "b"))
	r.Append([]uint64{1, 10}, 3)
	s := New(MustSchema("b", "c"))
	s.Append([]uint64{10, 100}, 5)
	s.Append([]uint64{10, 101}, 7)
	s.Append([]uint64{11, 102}, 9)
	j, err := r.Join(s, ring)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 2 {
		t.Fatalf("join size %d", j.Len())
	}
	for i := range j.Tuples {
		want := uint64(15)
		if j.Tuples[i][2] == 101 {
			want = 21
		}
		if j.Annot[i] != want {
			t.Fatalf("annotation %d, want %d", j.Annot[i], want)
		}
	}
	if len(j.Schema.Attrs) != 3 {
		t.Fatalf("join schema: %v", j.Schema.Attrs)
	}
}

func TestJoinCartesianWhenDisjoint(t *testing.T) {
	r := New(MustSchema("a"))
	r.Append([]uint64{1}, 1)
	r.Append([]uint64{2}, 1)
	s := New(MustSchema("b"))
	s.Append([]uint64{7}, 1)
	j, err := r.Join(s, ring)
	if err != nil || j.Len() != 2 {
		t.Fatalf("cartesian: %v %v", j, err)
	}
}

func TestSemijoinFiltersOnNonzero(t *testing.T) {
	r := New(MustSchema("a", "b"))
	r.Append([]uint64{1, 10}, 3)
	r.Append([]uint64{2, 11}, 4)
	r.Append([]uint64{3, 12}, 5)
	s := New(MustSchema("b", "c"))
	s.Append([]uint64{10, 1}, 1)
	s.Append([]uint64{11, 2}, 0) // zero annotation: does not support
	sj, err := r.Semijoin(s, ring)
	if err != nil {
		t.Fatal(err)
	}
	if sj.Len() != 1 || sj.Tuples[0][0] != 1 || sj.Annot[0] != 3 {
		t.Fatalf("semijoin: %v", sj)
	}
}

func TestSortByColumns(t *testing.T) {
	r := New(MustSchema("a", "b"))
	r.Append([]uint64{2, 1}, 10)
	r.Append([]uint64{1, 5}, 20)
	r.Append([]uint64{1, 3}, 30)
	perm := r.SortByColumns([]int{0, 1})
	wantOrder := [][2]uint64{{1, 3}, {1, 5}, {2, 1}}
	wantAnnot := []uint64{30, 20, 10}
	for i := range wantOrder {
		if r.Tuples[i][0] != wantOrder[i][0] || r.Tuples[i][1] != wantOrder[i][1] || r.Annot[i] != wantAnnot[i] {
			t.Fatalf("sorted row %d: %v @%d", i, r.Tuples[i], r.Annot[i])
		}
	}
	if perm[0] != 2 || perm[1] != 1 || perm[2] != 0 {
		t.Fatalf("perm: %v", perm)
	}
}

func TestKeySingleColumnPassThrough(t *testing.T) {
	r := New(MustSchema("a", "b"))
	r.Append([]uint64{42, 7}, 1)
	if r.Key(0, []int{0}) != 42 {
		t.Fatal("single-column key must pass through")
	}
}

func TestKeyCompositeDeterministicAndInRealRange(t *testing.T) {
	f := func(a, b uint64) bool {
		a &= MaxValue
		b &= MaxValue
		r := New(MustSchema("x", "y"))
		r.Append([]uint64{a, b}, 1)
		r.Append([]uint64{a, b}, 1)
		k1 := r.Key(0, []int{0, 1})
		k2 := r.Key(1, []int{0, 1})
		return k1 == k2 && !IsDummyValue(k1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyDummyPropagates(t *testing.T) {
	var dg DummyGen
	d := dg.Next()
	r := New(MustSchema("x", "y"))
	r.Append([]uint64{5, d}, 0)
	if k := r.Key(0, []int{0, 1}); k != d {
		t.Fatalf("dummy key: got %d, want %d", k, d)
	}
	if !r.IsDummy(0) {
		t.Fatal("IsDummy")
	}
}

func TestDummyGenUnique(t *testing.T) {
	var dg DummyGen
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		v := dg.Next()
		if !IsDummyValue(v) || seen[v] {
			t.Fatal("dummy values must be unique and in the dummy region")
		}
		seen[v] = true
	}
}

// TestNewDummyGenAfter pins the generator's start past a party's own
// dummies, and the typed rejection of values outside the 62-bit domain:
// before the check, a value near 2^64 made Next wrap to real values.
func TestNewDummyGenAfter(t *testing.T) {
	r := New(MustSchema("a", "b"))
	r.Append([]uint64{7, DummyBase + 41}, 0)
	dg, err := NewDummyGenAfter(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	if v := dg.Next(); v != DummyBase+42 {
		t.Fatalf("first dummy %#x, want %#x", v, DummyBase+42)
	}
	for _, bad := range []uint64{1 << 62, ^uint64(0)} {
		r := New(MustSchema("a"))
		r.Append([]uint64{bad}, 1)
		if _, err := NewDummyGenAfter(r); err == nil {
			t.Fatalf("value %#x accepted", bad)
		}
	}
}

// TestGroupIndexCollisions forces hash-bucket sharing and verifies the
// exact-match confirmation keeps groups separate.
func TestGroupIndexCollisions(t *testing.T) {
	cols := []int{0}
	g := newGroupIndex(cols, 4)
	rows := [][]uint64{{1}, {2}, {1}, {3}}
	for i, row := range rows {
		if g.lookup(row, cols) < 0 {
			g.insert(row, i)
		}
	}
	if got := g.lookup([]uint64{1}, cols); got != 0 {
		t.Fatalf("lookup(1) = %d, want 0", got)
	}
	if got := g.lookup([]uint64{3}, cols); got != 3 {
		t.Fatalf("lookup(3) = %d, want 3", got)
	}
	if got := g.lookup([]uint64{4}, cols); got != -1 {
		t.Fatalf("lookup(4) = %d, want -1", got)
	}
}

// TestReplaceWithDummies pins Mask: rows that pass are projected and
// annotated, rows that fail become zero-annotated dummies, and the size
// stays.
func TestReplaceWithDummies(t *testing.T) {
	var dg DummyGen
	r := New(MustSchema("a", "b"))
	r.Append([]uint64{1, 10}, 5)
	r.Append([]uint64{2, 20}, 6)
	r.Append([]uint64{3, 30}, 7)
	out := r.Mask(MustSchema("y"), []int{1}, func(row []uint64) bool { return row[0] != 2 },
		func(row []uint64) uint64 { return row[0] + 100 }, &dg)
	if out.Len() != 3 || len(out.Schema.Attrs) != 1 {
		t.Fatal("size must be preserved")
	}
	if !out.IsDummy(1) || out.Annot[1] != 0 {
		t.Fatal("failing tuple must become a zero-annotated dummy")
	}
	if out.IsDummy(0) || out.Tuples[0][0] != 10 || out.Annot[0] != 101 ||
		out.Tuples[2][0] != 30 || out.Annot[2] != 103 {
		t.Fatalf("passing tuples must be projected and annotated: %v", out)
	}
}

// TestFilterAndDropZero: DropZeroAnnotated removes zero-annotated and
// dummy rows, so after Mask only the rows that passed remain.
func TestFilterAndDropZero(t *testing.T) {
	r := New(MustSchema("a"))
	r.Append([]uint64{1}, 5)
	r.Append([]uint64{2}, 0)
	var dg DummyGen
	r.Append([]uint64{dg.Next()}, 3)
	d := r.DropZeroAnnotated()
	if d.Len() != 1 || d.Tuples[0][0] != 1 {
		t.Fatalf("DropZeroAnnotated: %v", d)
	}
	five := func([]uint64) uint64 { return 5 }
	f := r.Mask(r.Schema, []int{0}, func(row []uint64) bool { return row[0] == 2 }, five, &dg).DropZeroAnnotated()
	if f.Len() != 1 || f.Tuples[0][0] != 2 || f.Annot[0] != 5 {
		t.Fatalf("Mask, then DropZeroAnnotated: %v", f)
	}
}

func TestBoolSemiring(t *testing.T) {
	b := BoolSemiring{}
	if b.Add(0, 0) != 0 || b.Add(1, 0) != 1 || b.Mul(1, 1) != 1 || b.Mul(1, 0) != 0 {
		t.Fatal("bool semiring tables")
	}
	if b.Zero() != 0 || b.One() != 1 {
		t.Fatal("identities")
	}
}

func TestRingSemiringMasks(t *testing.T) {
	r8 := RingSemiring{Bits: 8}
	if r8.Add(200, 100) != 44 || r8.Mul(16, 16) != 0 {
		t.Fatal("ring mask")
	}
	r64 := RingSemiring{Bits: 64}
	if r64.Add(^uint64(0), 1) != 0 {
		t.Fatal("64-bit wraparound")
	}
}

func TestHashKeyCollisionResistanceSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	seen := map[uint64][2]uint64{}
	for i := 0; i < 20000; i++ {
		row := []uint64{rng.Uint64() & MaxValue, rng.Uint64() & MaxValue}
		k := HashKey(row, []int{0, 1})
		if prev, ok := seen[k]; ok && (prev[0] != row[0] || prev[1] != row[1]) {
			t.Fatalf("collision after %d keys", i)
		}
		seen[k] = [2]uint64{row[0], row[1]}
	}
}
