package permnet

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func applyPerm(nw *Network, dest []int, t *testing.T) []uint64 {
	t.Helper()
	bits, err := nw.Route(dest)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	vec := make([]uint64, nw.Size)
	for i := range vec {
		vec[i] = uint64(i) + 1000
	}
	nw.Apply(bits, vec)
	return vec
}

func TestBenesRoutesAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{1, 2, 4, 8, 16, 64, 256} {
		nw := New(size)
		for trial := 0; trial < 20; trial++ {
			dest := rng.Perm(size)
			out := applyPerm(nw, dest, t)
			for i := 0; i < size; i++ {
				if out[dest[i]] != uint64(i)+1000 {
					t.Fatalf("size %d trial %d: output %d got %d, want input %d",
						size, trial, dest[i], out[dest[i]], i)
				}
			}
		}
	}
}

func TestBenesIdentityAndReversal(t *testing.T) {
	const size = 32
	nw := New(size)
	id := make([]int, size)
	rev := make([]int, size)
	for i := range id {
		id[i] = i
		rev[i] = size - 1 - i
	}
	out := applyPerm(nw, id, t)
	for i := range out {
		if out[i] != uint64(i)+1000 {
			t.Fatalf("identity broke position %d", i)
		}
	}
	out = applyPerm(nw, rev, t)
	for i := range out {
		if out[i] != uint64(size-1-i)+1000 {
			t.Fatalf("reversal broke position %d", i)
		}
	}
}

func TestBenesGateCount(t *testing.T) {
	// Beneš of width n=2^k has n·k - n/2 switches; New allocates room
	// for exactly those.
	for _, size := range []int{1, 2, 4, 8, 16, 1024} {
		k := 0
		for 1<<k < size {
			k++
		}
		want := size*k - size/2
		nw := New(size)
		if got := nw.NumSwaps(); got != want {
			t.Errorf("size %d: %d swaps, want %d", size, got, want)
		}
		if got := BenesSwaps(size); got != want {
			t.Errorf("BenesSwaps(%d) = %d, want %d", size, got, want)
		}
		if cap(nw.Swaps) != want {
			t.Errorf("size %d: gate list has capacity %d for %d gates", size, cap(nw.Swaps), want)
		}
	}
}

// TestTopologyMatchesRoutingOrder pins New's gate list, generated from
// the size alone, to the positions routing emits, gate for gate: the
// control bits of Route line up with Swaps only if the two agree.
func TestTopologyMatchesRoutingOrder(t *testing.T) {
	for size := 1; size <= 1024; size *= 2 {
		dest := make([]int, size)
		for i := range dest {
			dest[i] = (i*5 + 3) % size
		}
		var routed [][2]int32
		walk(size, 0, dest, func(p, q int, _ bool) {
			routed = append(routed, [2]int32{int32(p), int32(q)})
		})
		if got := New(size).Swaps; !slices.Equal(got, routed) {
			t.Fatalf("size %d: New's gates differ from the routed positions", size)
		}
	}
}

func TestRouteRejectsBadInput(t *testing.T) {
	nw := New(4)
	if _, err := nw.Route([]int{0, 1}); err == nil {
		t.Error("short dest accepted")
	}
	if _, err := nw.Route([]int{0, 0, 1, 2}); err == nil {
		t.Error("non-bijection accepted")
	}
	if _, err := nw.Route([]int{0, 1, 2, 9}); err == nil {
		t.Error("out-of-range accepted")
	}
}

func TestNewRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(3)
}

func TestCeilPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024}
	for in, want := range cases {
		if got := CeilPow2(in); got != want {
			t.Errorf("CeilPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestExtendedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shapes := [][2]int{{1, 1}, {1, 5}, {5, 1}, {4, 4}, {3, 17}, {17, 3}, {50, 50}, {10, 100}}
	for _, sh := range shapes {
		m, n := sh[0], sh[1]
		e := NewExtended(m, n)
		for trial := 0; trial < 10; trial++ {
			xi := make([]int, n)
			for i := range xi {
				xi[i] = rng.Intn(m)
			}
			prog, err := e.Route(xi)
			if err != nil {
				t.Fatalf("(%d,%d): %v", m, n, err)
			}
			in := make([]uint64, m)
			for i := range in {
				in[i] = uint64(i) + 7
			}
			out, err := e.Apply(prog, in)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if out[i] != in[xi[i]] {
					t.Fatalf("(%d,%d) trial %d: out[%d]=%d, want in[%d]=%d",
						m, n, trial, i, out[i], xi[i], in[xi[i]])
				}
			}
		}
	}
}

func TestExtendedProperty(t *testing.T) {
	f := func(seed int64, mRaw, nRaw uint8) bool {
		m := int(mRaw%40) + 1
		n := int(nRaw%40) + 1
		rng := rand.New(rand.NewSource(seed))
		e := NewExtended(m, n)
		xi := make([]int, n)
		for i := range xi {
			xi[i] = rng.Intn(m)
		}
		prog, err := e.Route(xi)
		if err != nil {
			return false
		}
		in := make([]uint64, m)
		for i := range in {
			in[i] = rng.Uint64()
		}
		out, err := e.Apply(prog, in)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if out[i] != in[xi[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExtendedRejectsBadXi(t *testing.T) {
	e := NewExtended(3, 2)
	if _, err := e.Route([]int{0}); err == nil {
		t.Error("short xi accepted")
	}
	if _, err := e.Route([]int{0, 5}); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func BenchmarkRoute4096(b *testing.B) {
	nw := New(4096)
	rng := rand.New(rand.NewSource(1))
	dest := rng.Perm(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nw.Route(dest); err != nil {
			b.Fatal(err)
		}
	}
}
