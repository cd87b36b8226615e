package huffman

import (
	"container/heap"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/raceflag"
)

// The reference: the code-length build as it was on container/heap, kept so
// that the tests below can hold the in-place index heap to the same lengths.
// heap.Push and heap.Pop take and return `any`, which boxes every node index.

type refNode struct {
	freq        uint64
	left, right int // child indices, -1 for leaves
}

type refHeap struct {
	nodes []refNode
	order []int
}

func (h *refHeap) Len() int { return len(h.order) }
func (h *refHeap) Less(i, j int) bool {
	a, b := h.nodes[h.order[i]], h.nodes[h.order[j]]
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	return h.order[i] < h.order[j] // deterministic tie-break
}
func (h *refHeap) Swap(i, j int) { h.order[i], h.order[j] = h.order[j], h.order[i] }
func (h *refHeap) Push(x any)    { h.order = append(h.order, x.(int)) }
func (h *refHeap) Pop() any {
	old := h.order
	n := len(old)
	x := old[n-1]
	h.order = old[:n-1]
	return x
}

func refBuildLengths(freqs []uint64) []int {
	n := len(freqs)
	if n == 1 {
		return []int{1}
	}
	h := &refHeap{nodes: make([]refNode, 0, 2*n), order: make([]int, n)}
	for i := 0; i < n; i++ {
		h.nodes = append(h.nodes, refNode{freq: freqs[i], left: -1, right: -1})
		h.order[i] = i
	}
	heap.Init(h)
	for h.Len() > 1 {
		a := heap.Pop(h).(int)
		b := heap.Pop(h).(int)
		h.nodes = append(h.nodes, refNode{freq: h.nodes[a].freq + h.nodes[b].freq, left: a, right: b})
		heap.Push(h, len(h.nodes)-1)
	}
	lengths := make([]int, n)
	type frame struct{ idx, depth int }
	stack := []frame{{h.order[0], 0}}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := h.nodes[fr.idx]
		if nd.left == -1 {
			lengths[fr.idx] = fr.depth
			continue
		}
		stack = append(stack, frame{nd.left, fr.depth + 1}, frame{nd.right, fr.depth + 1})
	}
	return lengths
}

// refCodeLengths flattens freqs in place, as codeLengths used to.
func refCodeLengths(freqs []uint64) []int {
	for {
		lengths := refBuildLengths(freqs)
		maxLen := 0
		for _, l := range lengths {
			if l > maxLen {
				maxLen = l
			}
		}
		if maxLen <= maxCodeLen {
			return lengths
		}
		for i := range freqs {
			freqs[i] = freqs[i]/2 + 1
		}
	}
}

func TestCodeLengthsMatchHeapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// One scratch for every table, as a pooled one would be: whatever a build
	// leaves in the tree arrays must not reach the next.
	s := new(scratch)
	check := func(name string, freqs []uint64) {
		t.Helper()
		orig := append([]uint64(nil), freqs...)
		got := s.codeLengths(freqs)
		for i := range freqs {
			if freqs[i] != orig[i] {
				t.Fatalf("%s: codeLengths changed freqs[%d]", name, i)
			}
		}
		want := refCodeLengths(orig)
		if len(got) != len(want) {
			t.Fatalf("%s: %d lengths, reference %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: symbol %d of %d has length %d, reference %d", name, i, len(got), got[i], want[i])
			}
		}
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		if trial%4 == 0 {
			n = 257 + rng.Intn(1500) // past the range of ints Go boxes for free
		}
		freqs := make([]uint64, n)
		// Few distinct weights: ties everywhere, among leaves and between
		// leaves and merged nodes, so the (weight, index) tie-break decides.
		distinct := 1 + rng.Intn(4)
		for i := range freqs {
			freqs[i] = 1 + uint64(rng.Intn(distinct))
		}
		check("ties", freqs)
		for i := range freqs {
			freqs[i] = 1 + uint64(rng.Int63n(1<<uint(1+rng.Intn(40))))
		}
		check("spread", freqs)
	}
	// Fibonacci weights give the deepest tree there is: 80 of them go past
	// maxCodeLen and take the flatten-and-rebuild path, several times over.
	fib := make([]uint64, 80)
	fib[0], fib[1] = 1, 1
	for i := 2; i < len(fib); i++ {
		fib[i] = fib[i-1] + fib[i-2]
	}
	if l := new(scratch).buildLengths(fib); l[0] <= maxCodeLen {
		t.Fatalf("fibonacci tree is only %d deep: the flatten path is not exercised", l[0])
	}
	check("fibonacci", fib)
	check("single", []uint64{9})
	check("pair", []uint64{3, 3})
}

// TestEncodeAllocBudget holds a steady-state Encode to its output, on an
// alphabet wide enough that boxing node indices used to cost two
// allocations per symbol: the histogram, the tree arrays, the dictionary
// and the lookup tables come from the pooled scratch.
func TestEncodeAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(6))
	data := make([]int32, 200000)
	distinct := map[int32]bool{}
	for i := range data {
		data[i] = 32768 + int32(rng.NormFloat64()*150)
		distinct[data[i]] = true
	}
	if len(distinct) < 500 {
		t.Fatalf("alphabet of %d symbols, want at least 500", len(distinct))
	}
	// No collection during the measurement: a GC empties the pool.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := testing.AllocsPerRun(10, func() { Encode(data) }); n > 1 {
		t.Errorf("Encode allocates %v times, budget 1 (the output)", n)
	}
}
