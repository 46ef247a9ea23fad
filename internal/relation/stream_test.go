package relation

import (
	"io"
	"testing"
)

// buildTestRelation returns a small relation mixing real rows, dummy
// rows and zero annotations — the shapes the executor streams.
func buildTestRelation(n int) *Relation {
	r := New(MustSchema("a", "b", "c"))
	var dg DummyGen
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 3:
			r.Append([]uint64{dg.Next(), dg.Next(), dg.Next()}, 0)
		default:
			r.Append([]uint64{uint64(i % 5), uint64(i * 7), uint64(i)}, uint64(i%3))
		}
	}
	return r
}

func relationsEqual(t *testing.T, want, got *Relation) {
	t.Helper()
	if len(want.Schema.Attrs) != len(got.Schema.Attrs) {
		t.Fatalf("schema mismatch: %v vs %v", want.Schema.Attrs, got.Schema.Attrs)
	}
	if want.Len() != got.Len() {
		t.Fatalf("length mismatch: %d vs %d", want.Len(), got.Len())
	}
	for i := range want.Tuples {
		if want.Annot[i] != got.Annot[i] {
			t.Fatalf("row %d annotation %d, want %d", i, got.Annot[i], want.Annot[i])
		}
		for c := range want.Tuples[i] {
			if want.Tuples[i][c] != got.Tuples[i][c] {
				t.Fatalf("row %d col %d: %d, want %d", i, c, got.Tuples[i][c], want.Tuples[i][c])
			}
		}
	}
}

func TestScannerRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 100} {
		r := buildTestRelation(n)
		for _, chunk := range []int{1, 2, 3, 64, n, n + 1, Unbounded} {
			w := NewMemWriter(r.Schema)
			moved, err := Copy(w, NewScanner(r, chunk))
			if err != nil {
				t.Fatalf("n=%d chunk=%d: %v", n, chunk, err)
			}
			if moved != n {
				t.Fatalf("n=%d chunk=%d: moved %d tuples", n, chunk, moved)
			}
			relationsEqual(t, r, w.Rel)
		}
	}
}

func TestScannerChunkBounds(t *testing.T) {
	r := buildTestRelation(10)
	sc := NewScanner(r, 4)
	sizes := []int{}
	bases := []int{}
	for {
		ch, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, ch.Len())
		bases = append(bases, ch.Base)
	}
	wantSizes := []int{4, 4, 2}
	wantBases := []int{0, 4, 8}
	for i := range wantSizes {
		if i >= len(sizes) || sizes[i] != wantSizes[i] || bases[i] != wantBases[i] {
			t.Fatalf("chunks sizes=%v bases=%v, want %v/%v", sizes, bases, wantSizes, wantBases)
		}
	}
	if len(sizes) != len(wantSizes) {
		t.Fatalf("got %d chunks, want %d", len(sizes), len(wantSizes))
	}
}

// TestPermScannerMatchesSortByColumns pins the streaming sorted view to
// the materialized one: SortPermByColumns + PermScanner must reproduce
// exactly what Clone + SortByColumns yields, including the permutation.
func TestPermScannerMatchesSortByColumns(t *testing.T) {
	r := buildTestRelation(33)
	cols := []int{0, 2}

	sorted := r.Clone()
	wantPerm := sorted.SortByColumns(cols)

	perm := SortPermByColumns(r, cols)
	if len(perm) != len(wantPerm) {
		t.Fatalf("perm length %d, want %d", len(perm), len(wantPerm))
	}
	for i := range perm {
		if perm[i] != wantPerm[i] {
			t.Fatalf("perm[%d] = %d, want %d", i, perm[i], wantPerm[i])
		}
	}

	for _, chunk := range []int{1, 3, 8, Unbounded} {
		w := NewMemWriter(r.Schema)
		if _, err := Copy(w, NewPermScanner(r, perm, nil, chunk)); err != nil {
			t.Fatal(err)
		}
		relationsEqual(t, sorted, w.Rel)
	}
}

// TestPermScannerExternalAnnot checks the external-annotation form used
// by localMerge: annotations drawn through perm from a caller slice.
func TestPermScannerExternalAnnot(t *testing.T) {
	r := buildTestRelation(12)
	ext := make([]uint64, r.Len())
	for i := range ext {
		ext[i] = uint64(1000 + i)
	}
	perm := SortPermByColumns(r, []int{1})
	sc := NewPermScanner(r, perm, ext, 5)
	i := 0
	for {
		ch, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for k := range ch.Tuples {
			if ch.Annot[k] != ext[perm[i]] {
				t.Fatalf("pos %d: annot %d, want %d", i, ch.Annot[k], ext[perm[i]])
			}
			i++
		}
	}
	if i != r.Len() {
		t.Fatalf("streamed %d rows, want %d", i, r.Len())
	}
}

func TestRangeAndNumChunks(t *testing.T) {
	var windows [][2]int
	if err := Range(10, 4, func(lo, hi int) error {
		windows = append(windows, [2]int{lo, hi})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 4}, {4, 8}, {8, 10}}
	if len(windows) != len(want) {
		t.Fatalf("windows %v, want %v", windows, want)
	}
	for i := range want {
		if windows[i] != want[i] {
			t.Fatalf("windows %v, want %v", windows, want)
		}
	}
	if got := NumChunks(10, 4); got != 3 {
		t.Fatalf("NumChunks(10,4) = %d, want 3", got)
	}
	if got := NumChunks(10, Unbounded); got != 1 {
		t.Fatalf("NumChunks(10,∞) = %d, want 1", got)
	}
	if got := NumChunks(0, 4); got != 0 {
		t.Fatalf("NumChunks(0,4) = %d, want 0", got)
	}
}

func TestDefaultChunkSize(t *testing.T) {
	if got := EffectiveChunkSize(0); got != DefaultChunkSize() {
		t.Fatalf("EffectiveChunkSize(0) = %d, want the default %d", got, DefaultChunkSize())
	}
	if got := EffectiveChunkSize(5); got != 5 {
		t.Fatalf("EffectiveChunkSize(5) = %d, want 5", got)
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
