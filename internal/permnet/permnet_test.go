package permnet

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// checkRoute routes dest on nw and checks that Apply realizes it: output
// dest[i] holds input i.
func checkRoute(t testing.TB, nw *Network, dest []int) {
	t.Helper()
	prog, err := nw.Route(dest)
	if err != nil {
		t.Fatalf("size %d: Route(%v): %v", nw.Size, dest, err)
	}
	vec := make([]uint64, nw.Size)
	for i := range vec {
		vec[i] = uint64(i) + 1000
	}
	nw.Apply(prog, vec)
	for i, d := range dest {
		if vec[d] != uint64(i)+1000 {
			t.Fatalf("size %d, dest %v: output %d got input %d, want %d", nw.Size, dest, d, vec[d]-1000, i)
		}
	}
}

// permutations calls f with every permutation of [0, n), in place.
func permutations(n int, f func([]int)) {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			f(p)
			return
		}
		for i := k; i < n; i++ {
			p[k], p[i] = p[i], p[k]
			rec(k + 1)
			p[k], p[i] = p[i], p[k]
		}
	}
	rec(0)
}

// TestBenesRoutesAllSizes routes every permutation of up to 6 wires,
// which covers both fixed constraints (an odd n's bypassing wire, an
// even n's fixed output switch) at every place a permutation can put
// them, and random permutations at larger odd and even sizes.
func TestBenesRoutesAllSizes(t *testing.T) {
	for n := 0; n <= 6; n++ {
		nw := New(n)
		permutations(n, func(dest []int) { checkRoute(t, nw, dest) })
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256, 257} {
		nw := New(n)
		for trial := 0; trial < 20; trial++ {
			checkRoute(t, nw, rng.Perm(n))
		}
	}
}

// TestTopologyMatchesRoutingOrder routes a random permutation at every
// size up to 1 024: New's gate list comes from the size alone and
// Route's bits from the permutation, so Apply realizes it only if the
// two follow one gate order.
func TestTopologyMatchesRoutingOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= 1024; n++ {
		checkRoute(t, New(n), rng.Perm(n))
	}
}

// TestRouteLargeRandomSizes routes random permutations at random sizes
// up to 10⁵.
func TestRouteLargeRandomSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("routes networks of up to 10⁵ wires")
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 12; trial++ {
		n := 1025 + rng.Intn(100_000-1025)
		checkRoute(t, New(n), rng.Perm(n))
	}
}

func TestBenesIdentityAndReversal(t *testing.T) {
	for _, size := range []int{32, 33} {
		nw := New(size)
		id := make([]int, size)
		rev := make([]int, size)
		for i := range id {
			id[i] = i
			rev[i] = size - 1 - i
		}
		checkRoute(t, nw, id)
		checkRoute(t, nw, rev)
	}
}

// TestBenesGateCount pins the AS-Waksman gate count three ways: Swaps'
// closed form, the sum Σᵢ⌈log₂ i⌉, and the recurrence
// S(n) = S(⌊n/2⌋) + S(⌈n/2⌉) + n − 1; New's gate list has exactly that
// length and capacity.
func TestBenesGateCount(t *testing.T) {
	rec := []int{0, 0}
	sum := 0
	for n := 1; n <= 4096; n++ {
		sum += bits.Len(uint(n - 1))
		if n >= 2 {
			rec = append(rec, rec[n/2]+rec[n-n/2]+n-1)
		}
		if got := Swaps(n); got != sum || got != rec[n] {
			t.Fatalf("Swaps(%d) = %d, Σ⌈log₂ i⌉ = %d, recurrence %d", n, got, sum, rec[n])
		}
		if n > 1024 {
			continue
		}
		nw := New(n)
		if len(nw.Swaps) != sum || cap(nw.Swaps) != sum {
			t.Fatalf("size %d: gate list len %d, cap %d, want both %d", n, len(nw.Swaps), cap(nw.Swaps), sum)
		}
	}
	if Swaps(0) != 0 || len(New(0).Swaps) != 0 {
		t.Fatal("a network of no wires has gates")
	}
	for _, n := range []int{100_000, 190_500, 262_144} {
		if got := len(New(n).Swaps); got != Swaps(n) {
			t.Fatalf("size %d: %d gates, Swaps says %d", n, got, Swaps(n))
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
	if _, err := nw.Route([]int{0, 1, -1, 2}); err == nil {
		t.Error("negative destination accepted")
	}
}

// checkExtended routes xi on NewExtended(m, len(xi)) and checks Apply
// against it, and the program's length against NumGates.
func checkExtended(t testing.TB, m int, xi []int, rng *rand.Rand) {
	t.Helper()
	e := NewExtended(m, len(xi))
	prog, err := e.Route(xi)
	if err != nil {
		t.Fatalf("(%d,%d): %v", m, len(xi), err)
	}
	if len(prog) != e.NumGates() {
		t.Fatalf("(%d,%d): %d bits for %d gates", m, len(xi), len(prog), e.NumGates())
	}
	in := make([]uint64, m)
	for i := range in {
		in[i] = rng.Uint64()
	}
	out, err := e.Apply(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(xi) {
		t.Fatalf("(%d,%d): %d outputs", m, len(xi), len(out))
	}
	for i, s := range xi {
		if out[i] != in[s] {
			t.Fatalf("(%d,%d) xi %v: out[%d] = %d, want in[%d] = %d", m, len(xi), xi, i, out[i], s, in[s])
		}
	}
}

// TestExtendedRandom covers the shapes an extended permutation takes:
// more inputs than outputs (Pre wider than Post), fewer (Pre padded with
// inputs nobody reads), no outputs, one input, and every output a copy
// of one source.
func TestExtendedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shapes := [][2]int{{1, 1}, {1, 5}, {5, 1}, {4, 4}, {3, 17}, {17, 3}, {50, 50}, {10, 100}, {100, 10}, {7, 0}, {0, 0}, {1, 0}}
	for _, sh := range shapes {
		m, n := sh[0], sh[1]
		for trial := 0; trial < 10; trial++ {
			xi := make([]int, n)
			for i := range xi {
				xi[i] = rng.Intn(m)
			}
			checkExtended(t, m, xi, rng)
		}
	}
	for _, sh := range [][2]int{{1, 9}, {9, 9}, {9, 4}, {4, 9}} {
		for src := 0; src < sh[0]; src++ {
			xi := make([]int, sh[1])
			for i := range xi {
				xi[i] = src
			}
			checkExtended(t, sh[0], xi, rng)
		}
	}
	if got := NewExtended(9, 0).NumGates(); got != 0 {
		t.Fatalf("an extended permutation with no outputs has %d gates", got)
	}
}

func TestExtendedProperty(t *testing.T) {
	f := func(seed int64, mRaw, nRaw uint8) bool {
		m := int(mRaw%40) + 1
		n := int(nRaw % 41)
		rng := rand.New(rand.NewSource(seed))
		xi := make([]int, n)
		for i := range xi {
			xi[i] = rng.Intn(m)
		}
		checkExtended(t, m, xi, rng)
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
	if _, err := e.Apply(make([]bool, e.NumGates()-1), make([]uint64, 3)); err == nil {
		t.Error("short program accepted")
	}
}

// TestRouteAllocsConstant pins routing to a fixed number of allocations
// whatever the size: the bits and the scratch arena's two slices, which
// every recursion level reuses (plus the extended route's source
// counts).
func TestRouteAllocsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{64, 4096} {
		nw := New(n)
		dest := rng.Perm(n)
		if a := testing.AllocsPerRun(5, func() { nw.Route(dest) }); a > 3 {
			t.Errorf("Network.Route at %d wires: %.0f allocations, want ≤ 3", n, a)
		}
		e := NewExtended(n, n+n/3)
		xi := make([]int, e.N)
		for i := range xi {
			xi[i] = rng.Intn(n)
		}
		if a := testing.AllocsPerRun(5, func() { e.Route(xi) }); a > 4 {
			t.Errorf("Extended.Route at %d → %d: %.0f allocations, want ≤ 4", n, e.N, a)
		}
	}
}

// FuzzRoute decodes a size up to 2 048 and a permutation of it (a
// Fisher–Yates shuffle drawing its swaps from the fuzzer's bytes) and
// checks that the routed network realizes it.
func FuzzRoute(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(5), []byte{3, 1, 4, 1, 5})
	f.Add(uint16(6), []byte{2, 7, 1, 8})
	f.Add(uint16(1000), []byte{9, 200, 17, 4, 250, 33})
	f.Fuzz(func(t *testing.T, size uint16, swaps []byte) {
		n := int(size) % 2049
		dest := make([]int, n)
		for i := range dest {
			dest[i] = i
		}
		for i, b := 0, 0; i < n-1 && len(swaps) > 0; i, b = i+1, b+2 {
			r := int(swaps[b%len(swaps)]) | int(swaps[(b+1)%len(swaps)])<<8
			j := i + r%(n-i)
			dest[i], dest[j] = dest[j], dest[i]
		}
		checkRoute(t, New(n), dest)
	})
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
