package relation

import (
	"testing"
)

// FuzzSortPermWalk checks the sorted view the merge operators use
// instead of a sorted clone: over fuzzer-shaped relations with dummy
// rows, SortPermByColumns must be a permutation of the row indices, and
// walking it (row := r.Tuples[perm[i]]) must reproduce SortByColumns'
// rows and annotations exactly while leaving r untouched. The data bytes
// drive row values (the high bit of a row's first byte makes it a dummy
// row) and the sort columns.
func FuzzSortPermWalk(f *testing.F) {
	f.Add(uint8(3), uint8(1), []byte{1, 2, 3, 4, 5, 6})
	f.Add(uint8(2), uint8(0), []byte{0x80, 0, 0x80, 7})
	f.Add(uint8(1), uint8(5), []byte{9, 9, 9, 9, 0x81, 1})
	f.Add(uint8(4), uint8(255), []byte{})
	f.Fuzz(func(t *testing.T, width, colMask uint8, data []byte) {
		w := int(width%4) + 1 // 1..4 columns

		attrs := make([]Attr, w)
		for i := range attrs {
			attrs[i] = Attr('a' + rune(i))
		}
		r := New(MustSchema(attrs...))
		var dg DummyGen
		for pos := 0; pos+w <= len(data) && r.Len() < 512; pos += w + 1 {
			row := make([]uint64, w)
			dummy := data[pos]&0x80 != 0
			for c := 0; c < w; c++ {
				if dummy {
					row[c] = dg.Next()
				} else {
					row[c] = uint64(data[pos+c])
				}
			}
			r.Append(row, uint64(data[pos]&0x7f))
		}
		// Sort columns: the mask's set bits among the w columns, in
		// descending order so multi-column sorts are not always a prefix.
		var cols []int
		for c := w - 1; c >= 0; c-- {
			if colMask&(1<<c) != 0 {
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 {
			cols = []int{0}
		}

		orig := r.Clone()
		perm := SortPermByColumns(r, cols)
		assertSame(t, orig, r) // computing the permutation moves nothing

		if len(perm) != r.Len() {
			t.Fatalf("perm has %d entries for %d rows", len(perm), r.Len())
		}
		seen := make([]bool, r.Len())
		for _, old := range perm {
			if old < 0 || old >= r.Len() || seen[old] {
				t.Fatalf("perm %v is not a permutation of %d rows", perm, r.Len())
			}
			seen[old] = true
		}

		sorted := r.Clone()
		wantPerm := sorted.SortByColumns(cols)
		walked := New(r.Schema)
		for i, old := range perm {
			if old != wantPerm[i] {
				t.Fatalf("perm[%d] = %d, SortByColumns applied %d", i, old, wantPerm[i])
			}
			walked.Append(r.Tuples[old], r.Annot[old])
		}
		assertSame(t, sorted, walked)
	})
}

func assertSame(t *testing.T, want, got *Relation) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("length %d, want %d", got.Len(), want.Len())
	}
	for i := range want.Tuples {
		if want.Annot[i] != got.Annot[i] {
			t.Fatalf("row %d annotation %d, want %d", i, got.Annot[i], want.Annot[i])
		}
		for c := range want.Tuples[i] {
			if want.Tuples[i][c] != got.Tuples[i][c] {
				t.Fatalf("row %d col %d value %d, want %d", i, c, got.Tuples[i][c], want.Tuples[i][c])
			}
		}
	}
}
