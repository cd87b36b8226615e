// Package huffman implements a canonical Huffman coder for the integer
// quantization codes produced by the error-bounded compressors, mirroring the
// entropy stage of SZ. The encoded stream is self-describing: it carries the
// symbol dictionary and canonical code lengths, followed by the bit stream.
//
// Encode writes one sequential bitstream, and Decode reads exactly that
// format.
//
// In steady state a call allocates only what it returns. Every array whose
// size depends on the stream — the histogram, the Huffman tree (two flat
// arrays, weights and parents, merged through an index heap of plain ints),
// the sorted dictionary, the canonical codes, the symbol→code lookup on the
// encode side, the dictionary and the lookup table on the decode side — lives
// in a scratch struct taken from a sync.Pool for the duration of one call.
// The output is sized once, for header, dictionary and payload. Code lengths
// depend only on the order in which the heap yields its minima, which the
// total order (weight, node index) fixes, so they — and the streams — are the
// same as when the tree was built with container/heap (lengths_test.go keeps
// that build as the reference).
package huffman

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/bitio"
	"repro/internal/wire"
)

// maxCodeLen bounds canonical code lengths so codes fit comfortably in a
// uint64. If the Huffman tree is deeper, frequencies are flattened and the
// tree rebuilt.
const maxCodeLen = 57

// tableBits is the index width of the primary decode lookup table: one peek
// of this many bits resolves every code of length ≤ tableBits (the vast
// majority of symbols in SZ quantization streams) in a single table hit.
// 10 bits keeps the table at 2¹⁰ 32-byte entries (32 KiB), L1-resident —
// measured faster than wider tables despite covering fewer long codes.
const tableBits = 10

// maxN bounds the plausible symbol count in a stream header. The decoder
// enforces it before allocating.
const maxN = 1 << 33

// scratch is one call's working memory. Each array keeps its capacity from
// call to call and is resized (not cleared) for the next stream, so every
// user either writes an element before reading it or clears what it reads.
type scratch struct {
	// Encode: the histogram, the tree, the dictionary and the lookup.
	counts  []uint64 // dense histogram, by symbol − minS
	sorted  []int32  // wide-range histogram: the stream, sorted
	symbols []int32  // distinct symbols, ascending
	freqs   []uint64 // aligned with symbols
	weight  []uint64 // tree node weights, leaves first
	parent  []int    // tree node parents, then leaf depths
	heap    []int
	ss      []sym
	lookup  []uint64 // symbol→code lookup (coder)
	c       coder

	// Both: code lengths and canonical codes in dictionary order.
	lens  []int
	codes []uint64

	// Decode: the dictionary's symbols and the table built over them.
	syms []int32
	t    decodeTable
}

// maxPooledLen caps what a pooled scratch may keep: a quantization code
// stream spans at most 2¹⁶ symbols, so only a stream from some other source
// — or a hostile one, whose dense histogram can reach denseSpanLimit
// entries — grows an array past it, and that scratch is dropped instead of
// pinning the memory in the pool.
const maxPooledLen = 1 << 16

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(s *scratch) {
	// Every other array is bounded by one of these five: symbols, freqs, ss,
	// lens and codes by the alphabet (weight holds 2k−1); the decode table
	// is a fixed size.
	if cap(s.counts) > maxPooledLen || cap(s.sorted) > maxPooledLen || cap(s.lookup) > maxPooledLen ||
		cap(s.weight) > 2*maxPooledLen || cap(s.syms) > maxPooledLen {
		return
	}
	scratchPool.Put(s)
}

// resize returns a slice of length n, reusing s's array when it is large
// enough. The elements are whatever s held: callers overwrite or clear them.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// codeLengths computes Huffman code lengths for the given symbol
// frequencies, flattening a copy of them if the depth would exceed
// maxCodeLen. freqs itself is left alone: it sizes the bit stream.
func (s *scratch) codeLengths(freqs []uint64) []int {
	lengths := s.buildLengths(freqs)
	flattened := false
	for slices.Max(lengths) > maxCodeLen {
		// Flatten the distribution and retry; this terminates because all
		// frequencies converge toward 1, giving a balanced tree.
		if !flattened {
			freqs, flattened = slices.Clone(freqs), true
		}
		for i := range freqs {
			freqs[i] = freqs[i]/2 + 1
		}
		lengths = s.buildLengths(freqs)
	}
	return lengths
}

// treeHeap is a binary min-heap of tree-node indices ordered by (weight,
// index). The order is total, so the sequence of minima — and with it the
// tree and every code length — is the same for any correct heap; this one
// stores plain ints where container/heap boxed each index pushed or popped
// (one allocation apiece above 255) into an interface.
type treeHeap struct {
	weight []uint64 // by node index
	idx    []int    // the heap
}

func (h *treeHeap) less(a, b int) bool {
	if h.weight[a] != h.weight[b] {
		return h.weight[a] < h.weight[b]
	}
	return a < b // deterministic tie-break
}

// down restores the heap below position i, whose entry may be too heavy.
func (h *treeHeap) down(i int) {
	idx := h.idx
	for {
		c := 2*i + 1
		if c >= len(idx) {
			return
		}
		if c+1 < len(idx) && h.less(idx[c+1], idx[c]) {
			c++
		}
		if !h.less(idx[c], idx[i]) {
			return
		}
		idx[i], idx[c] = idx[c], idx[i]
		i = c
	}
}

// pop removes and returns the minimum.
func (h *treeHeap) pop() int {
	idx := h.idx
	top, last := idx[0], len(idx)-1
	idx[0] = idx[last]
	h.idx = idx[:last]
	h.down(0)
	return top
}

// buildLengths returns the depth of each symbol's leaf in the Huffman tree
// of freqs. Leaves are nodes 0..n-1; each merge appends a node, so a parent
// always has a higher index than its children. The result is valid until
// the next build on s.
func (s *scratch) buildLengths(freqs []uint64) []int {
	n := len(freqs)
	if n == 1 {
		s.parent = resize(s.parent, 1)
		s.parent[0] = 1
		return s.parent
	}
	s.weight = resize(s.weight, 2*n-1)
	s.parent = resize(s.parent, 2*n-1)
	s.heap = resize(s.heap, n)
	weight := s.weight[:n]
	copy(weight, freqs)
	parent := s.parent
	h := treeHeap{weight: weight, idx: s.heap}
	for i := range h.idx {
		h.idx[i] = i
	}
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	for len(h.idx) > 1 {
		// Merge the two lightest nodes; the new node takes the second one's
		// place at the top of the heap and sinks from there.
		a := h.pop()
		b := h.idx[0]
		m := len(h.weight)
		h.weight = append(h.weight, h.weight[a]+h.weight[b])
		parent[a], parent[b] = m, m
		h.idx[0] = m
		h.down(0)
	}
	// The root is the last node; walking down from it, every parent's depth
	// is known before its children's. parent is reused for the depths.
	depth := parent
	depth[2*n-2] = 0
	for i := 2*n - 3; i >= 0; i-- {
		depth[i] = depth[parent[i]] + 1
	}
	return depth[:n:n]
}

// canonicalCodes fills codes with the canonical code of each length in
// lengths, which are sorted by (length, symbol).
func canonicalCodes(codes []uint64, lengths []int) {
	var code uint64
	prevLen := 0
	for i, l := range lengths {
		code <<= uint(l - prevLen)
		codes[i] = code
		code++
		prevLen = l
	}
}

// denseSpanLimit caps the symbol range for which histogram and code lookup
// use dense offset-indexed arrays instead of maps. SZ quantization codes
// cluster tightly around the zero code, so the dense path is the common one;
// the limit keeps degenerate wide-range inputs from allocating huge tables.
const denseSpanLimit = 1 << 22

// histogram counts symbol occurrences, returning symbols in ascending order
// with aligned frequencies. When the symbol range is small (the SZ
// quantization-code case) it uses a dense offset-indexed counting array; the
// fallback for arbitrary ranges (regression coefficient codes, say) counts
// the runs of a sorted copy. Both produce identical results. The returned
// minS/span/dense describe the range so the emit stage can make the same
// choice without recomputing it.
func (s *scratch) histogram(data []int32) (symbols []int32, freqs []uint64, minS int32, span int64, dense bool) {
	// min and max compile to conditional moves: the scan has no branch to
	// mispredict on noisy codes.
	minS, maxS := data[0], data[0]
	for _, v := range data {
		minS, maxS = min(minS, v), max(maxS, v)
	}
	span = int64(maxS) - int64(minS) + 1
	limit := int64(4*len(data)) + 1024
	dense = span <= denseSpanLimit && span <= limit
	if dense {
		counts := s.count(data, minS, int(span))
		k := 0
		for _, c := range counts {
			k += nonzero(c)
		}
		// Every count is written and the cursor advances past the nonzero
		// ones: no branch per entry, and one slot of slack for the last
		// write.
		s.symbols, s.freqs = resize(s.symbols, k+1), resize(s.freqs, k+1)
		symbols, freqs = s.symbols, s.freqs
		j := 0
		for i, c := range counts {
			symbols[j], freqs[j] = minS+int32(i), c
			j += nonzero(c)
		}
		return symbols[:k], freqs[:k], minS, span, dense
	}
	// Wide range: count the runs of a sorted copy.
	s.sorted = resize(s.sorted, len(data))
	sorted := s.sorted
	copy(sorted, data)
	slices.Sort(sorted)
	k := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			k++
		}
	}
	s.symbols, s.freqs = resize(s.symbols, k), resize(s.freqs, k)
	symbols, freqs = s.symbols[:0], s.freqs[:0]
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		symbols = append(symbols, sorted[i])
		freqs = append(freqs, uint64(j-i))
		i = j
	}
	return symbols, freqs, minS, span, dense
}

// countLanes is how many tables count spans of up to maxPooledLen/countLanes
// symbols. Quantization codes are dominated by one symbol, and a single
// table serializes its increments, each waiting on the last; four tables
// take consecutive symbols in turn and are summed at the end.
const countLanes = 4

// count returns the dense histogram of data, whose symbols lie in
// [minS, minS+span).
func (s *scratch) count(data []int32, minS int32, span int) []uint64 {
	lanes := countLanes
	if span > maxPooledLen/countLanes {
		lanes = 1
	}
	s.counts = resize(s.counts, lanes*span)
	counts := s.counts
	clear(counts)
	if lanes == 1 {
		for _, v := range data {
			counts[int64(v)-int64(minS)]++
		}
		return counts
	}
	// span ≤ 2¹⁴, so v − minS cannot overflow.
	c0, c1, c2, c3 := counts[:span], counts[span:2*span], counts[2*span:3*span], counts[3*span:]
	i := 0
	for ; i+4 <= len(data); i += 4 {
		c0[data[i]-minS]++
		c1[data[i+1]-minS]++
		c2[data[i+2]-minS]++
		c3[data[i+3]-minS]++
	}
	for ; i < len(data); i++ {
		c0[data[i]-minS]++
	}
	for j := range c0 {
		c0[j] += c1[j] + c2[j] + c3[j]
	}
	return c0
}

// nonzero is 1 for a nonzero count and 0 for zero, without a branch.
func nonzero(c uint64) int { return int((c | -c) >> 63) }

// sym is one dictionary entry: a symbol and its canonical code length.
type sym struct {
	s int32
	l int
}

// coder holds one canonical code assignment — the sorted dictionary, the
// code values, and the symbol→code lookup.
type coder struct {
	ss        []sym    // dictionary sorted by (length, symbol)
	codes     []uint64 // canonical codes aligned with ss
	totalBits int      // Σ freq·len over the whole input

	// Symbol→code lookup, mirroring histogram's choice: dense, indexed by
	// symbol − minS; otherwise indexed by the symbol's rank in symbols
	// (ascending), which a binary search finds. An entry is the code
	// shifted up by lenBits, or'ed with its length (≤ maxCodeLen < 2⁶, and
	// 57 + 6 bits fit a word): emit reads one word per symbol.
	dense   bool
	minS    int32
	symbols []int32
	lookup  []uint64
}

// lenBits is the width of the length field of a lookup entry, and lenMask
// selects it. lenMask is 63, so a shift by e&lenMask is one instruction.
const (
	lenBits = 6
	lenMask = 1<<lenBits - 1
)

// coder builds the canonical code assignment for data (which must be
// non-empty). It is valid until the next use of s.
func (s *scratch) coder(data []int32) *coder {
	symbols, freqs, minS, span, dense := s.histogram(data)

	lengths := s.codeLengths(freqs)
	totalBits := 0
	for i, f := range freqs {
		totalBits += int(f) * lengths[i]
	}

	// Sort symbols canonically: by (length, symbol value).
	s.ss = resize(s.ss, len(symbols))
	ss := s.ss
	for i := range symbols {
		ss[i] = sym{symbols[i], lengths[i]}
	}
	slices.SortFunc(ss, func(a, b sym) int {
		if a.l != b.l {
			return cmp.Compare(a.l, b.l)
		}
		return cmp.Compare(a.s, b.s)
	})
	s.lens, s.codes = resize(s.lens, len(ss)), resize(s.codes, len(ss))
	for i := range ss {
		s.lens[i] = ss[i].l
	}
	canonicalCodes(s.codes, s.lens)

	s.c = coder{ss: ss, codes: s.codes, totalBits: totalBits, dense: dense, minS: minS, symbols: symbols}
	c := &s.c
	// Only the entries of symbols present in data are written, and emit
	// looks up no others, so what a previous stream left in the rest of a
	// dense table is never read.
	n := len(ss)
	if dense {
		n = int(span)
	}
	s.lookup = resize(s.lookup, n)
	c.lookup = s.lookup
	for i, e := range ss {
		c.lookup[c.index(e.s)] = s.codes[i]<<lenBits | uint64(e.l)
	}
	return c
}

// index returns where the lookup keeps symbol v's code.
func (c *coder) index(v int32) int {
	if c.dense {
		return int(int64(v) - int64(c.minS))
	}
	i, _ := slices.BinarySearch(c.symbols, v)
	return i
}

// streamLen bounds the encoded size of the stream — the symbol count, the
// dictionary, and the payload — so that building it allocates at most once
// instead of growing through the header.
func (c *coder) streamLen() int {
	dict := binary.MaxVarintLen64 + len(c.ss)*(binary.MaxVarintLen64+1)
	return binary.MaxVarintLen64 + dict + (c.totalBits+7)/8
}

// appendDict serializes the dictionary — uvarint symbol count, then per
// symbol a zigzag delta and a length byte — the same in both wire formats.
func (c *coder) appendDict(out []byte) []byte {
	out = binary.AppendUvarint(out, uint64(len(c.ss)))
	prev := int64(0)
	for _, e := range c.ss {
		delta := int64(e.s) - prev
		out = binary.AppendVarint(out, delta)
		prev = int64(e.s)
		out = append(out, byte(e.l))
	}
	return out
}

// keys returns the lookup keys emit takes for data: the symbols themselves
// when the lookup is dense, their ranks in the dictionary otherwise (a
// binary search each, into buf).
func (c *coder) keys(data, buf []int32) []int32 {
	if c.dense {
		return data
	}
	for i, v := range data {
		buf[i] = int32(c.index(v))
	}
	return buf
}

// emit appends the codes of the symbols whose lookup keys are keys
// (c.keys) to out, most significant bit first and zero-padded to a whole
// byte: (totalBits+7)/8 bytes, which out must have room for.
func (c *coder) emit(out []byte, keys []int32) []byte {
	base := len(out)
	out = out[:base+(c.totalBits+7)/8]
	minS := c.minS
	if !c.dense {
		minS = 0 // keys are ranks
	}
	emitBits(out[base:], keys, c.lookup, minS)
	return out
}

// emitBits writes the codes of keys into p, which holds them exactly. The
// bits collect in a local 64-bit register stored 8 bytes at a time, so a
// symbol costs one lookup, a shift and an or, and no call.
func emitBits(p []byte, keys []int32, lookup []uint64, minS int32) {
	// acc holds n pending bits in its low bits; what lies above them is
	// left over from a code already stored, and shifts out before acc is.
	var acc uint64
	var n uint
	pos := 0
	for _, k := range keys {
		e := lookup[k-minS]
		if l := uint(e & lenMask); n+l <= 64 {
			acc = acc<<(e&lenMask) | e>>lenBits
			n += l
			continue
		}
		acc, n = storeWord(p[pos:pos+8], acc, n, e)
		pos += 8
	}
	tail := acc << (64 - n) // n = 0 shifts all 64 bits out
	for ; pos < len(p); pos++ {
		p[pos] = byte(tail >> 56)
		tail <<= 8
	}
}

// storeWord tops the n pending bits of acc up to 64 with the high bits of
// entry e's code, stores them in w, and returns the code, whose low r bits
// did not fit, and r. It is emitBits' slow path, taken once per 64 bits.
func storeWord(w []byte, acc uint64, n uint, e uint64) (uint64, uint) {
	code, l := e>>lenBits, uint(e&lenMask)
	r := n + l - 64
	binary.BigEndian.PutUint64(w, acc<<((l-r)&63)|code>>(r&63))
	return code, r
}

// Encode compresses a sequence of int32 symbols. The output is
// self-describing and decoded by Decode.
func Encode(data []int32) []byte { return AppendEncode(nil, data) }

// AppendEncode appends the encoding of data (what Encode returns) to dst
// and returns the extended buffer, growing it at most once.
func AppendEncode(dst []byte, data []int32) []byte {
	s := getScratch()
	out := s.appendEncode(dst, data)
	putScratch(s)
	return out
}

func (s *scratch) appendEncode(dst []byte, data []int32) []byte {
	if len(data) == 0 {
		dst = binary.AppendUvarint(dst, 0)
		return binary.AppendUvarint(dst, 0)
	}
	c := s.coder(data)

	out := slices.Grow(dst, c.streamLen())
	out = binary.AppendUvarint(out, uint64(len(data)))
	out = c.appendDict(out)

	// The header/dictionary buffer already has room for the exact payload
	// (Σ freq·len), so the bit stream is written in place.
	if !c.dense {
		s.sorted = resize(s.sorted, len(data))
	}
	return c.emit(out, c.keys(data, s.sorted))
}

// Decode reverses Encode.
func Decode(buf []byte) ([]int32, error) {
	out, err := AppendDecode(nil, buf)
	if err != nil {
		return nil, err
	}
	if out == nil {
		return []int32{}, nil
	}
	return slices.Clip(out), nil
}

// AppendDecode appends the symbols of an encoded stream (what Decode
// returns) to dst and returns the extended slice, growing it at most once.
// On error it returns nil.
func AppendDecode(dst []int32, buf []byte) ([]int32, error) {
	s := getScratch()
	out, err := s.appendDecode(dst, buf)
	putScratch(s)
	return out, err
}

func (s *scratch) appendDecode(dst []int32, buf []byte) ([]int32, error) {
	r := wire.NewReader(buf)
	un := r.Uvarint(maxN)
	uk := r.Uvarint(un + 1)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("huffman: header: %w", err)
	}
	n, k := int(un), int(uk)
	if n == 0 {
		return dst, nil
	}
	if k == 0 {
		return nil, errors.New("huffman: zero symbols for nonzero data")
	}
	syms, lens, err := s.parseDict(&r, k)
	if err != nil {
		return nil, err
	}
	t, err := s.table(syms, lens, n)
	if err != nil {
		return nil, err
	}
	// Every code is at least one bit, so the payload bounds the symbol
	// count; checking before the allocation below keeps a corrupt header
	// from demanding gigabytes for a few bytes of stream.
	if n > r.Len()*8 {
		return nil, fmt.Errorf("huffman: %d-byte stream cannot hold %d symbols: %w", r.Len(), n, bitio.ErrOutOfBits)
	}
	br := bitio.NewReader(r.Rest())
	// maxBatch slack lets the batch path store a full fixed-size array (a
	// few plain moves instead of a variable-length copy); the tail beyond n
	// stays in the spare capacity and is never decoded.
	base := len(dst)
	out := slices.Grow(dst, n+maxBatch)[:base+n+maxBatch]
	if err := t.decodeAll(br, out[base:], n); err != nil {
		return nil, err
	}
	return out[:base+n], nil
}

// parseDict reads the k-entry dictionary (zigzag-delta symbols + length
// bytes) from r and checks it is sorted by (length, symbol) as canonical
// decode requires. It returns the symbols and lengths.
func (s *scratch) parseDict(r *wire.Reader, k int) (syms []int32, lens []int, err error) {
	// Each entry takes at least two bytes, which bounds k by the input before
	// anything is sized from it.
	if k > r.Len()/2 {
		return nil, nil, errors.New("huffman: truncated dictionary")
	}
	s.syms, s.lens = resize(s.syms, k), resize(s.lens, k)
	syms, lens = s.syms, s.lens
	prev := int64(0)
	for i := range syms {
		prev += r.Varint()
		l := r.Byte()
		if err := r.Err(); err != nil {
			return nil, nil, fmt.Errorf("huffman: truncated dictionary: %w", err)
		}
		if prev > math.MaxInt32 || prev < math.MinInt32 {
			return nil, nil, errors.New("huffman: symbol out of range")
		}
		if l == 0 || l > maxCodeLen+1 {
			return nil, nil, fmt.Errorf("huffman: invalid code length %d", l)
		}
		syms[i], lens[i] = int32(prev), int(l)
	}
	for i := 1; i < k; i++ {
		if lens[i] < lens[i-1] {
			return nil, nil, errors.New("huffman: dictionary not canonical")
		}
	}
	return syms, lens, nil
}

// maxBatch is the number of symbols one decode-table entry can hold.
const maxBatch = 7

type tableEntry struct {
	n     uint8 // symbols fully decoded within the window
	total uint8 // bits consumed by those n symbols
	first uint8 // bit length of the first symbol; 0 → long-code fallback
	syms  [maxBatch]int32
}

// decodeTable is the table-driven canonical decoder state.
//
// The primary table maps every possible value of the next tb bits to the
// symbols that decode from it. Because SZ quantization streams are dominated
// by 1–3-bit codes, one window usually holds several complete symbols, so
// each entry stores the whole batch — one Peek/lookup/Skip round-trip emits
// up to maxBatch symbols, amortizing the serial bit-position dependency that
// otherwise bounds Huffman decode throughput. Codes longer than tb fall back
// to the canonical first-code scan.
type decodeTable struct {
	syms   []int32
	maxLen int
	tb     int
	// Per code length up to the longest parseDict accepts: the first
	// canonical code, its index in syms, and how many codes have it.
	firstCode [maxCodeLen + 2]uint64
	firstIdx  [maxCodeLen + 2]int
	countAt   [maxCodeLen + 2]int
	entries   [1 << tableBits]tableEntry // the first 1<<tb are in use
}

// table validates the code lengths (Kraft sum) and fills s's lookup table.
// n is the total symbol count of the stream, used only to size the table
// for small streams. The table is valid until the next use of s.
func (s *scratch) table(syms []int32, lens []int, n int) (*decodeTable, error) {
	k := len(syms)
	s.codes = resize(s.codes, k)
	codes := s.codes
	canonicalCodes(codes, lens)

	// Canonical decoding: per length, the first code and symbol index.
	maxLen := lens[k-1]
	// Reject dictionaries that oversubscribe the code space (Kraft sum > 1):
	// their canonical codes overflow the length class, which the table fill
	// below must never see. The check is incremental so it cannot overflow.
	var kraft uint64 // in units of 2^-maxLen
	for i := 0; i < k; i++ {
		kraft += 1 << uint(maxLen-lens[i])
		if kraft > 1<<uint(maxLen) {
			return nil, errors.New("huffman: invalid code lengths")
		}
	}
	t := &s.t
	t.syms, t.maxLen = syms, maxLen
	// firstCode and firstIdx are read only at lengths countAt says are used,
	// and written there below.
	firstCode, firstIdx, countAt := &t.firstCode, &t.firstIdx, &t.countAt
	clear(countAt[:])
	for i := 0; i < k; i++ {
		if countAt[lens[i]] == 0 {
			firstCode[lens[i]] = codes[i]
			firstIdx[lens[i]] = i
		}
		countAt[lens[i]]++
	}

	tb := tableBits
	if maxLen < tb {
		tb = maxLen
	}
	if n < 1<<14 && tb > 8 {
		tb = 8 // small streams don't amortize the full-width table build
	}
	t.tb = tb
	// The fill below counts up from zeroed entries.
	table := t.entries[:1<<uint(tb)]
	clear(table)
	for w := range table {
		e := &table[w]
		pos := 0
		for int(e.n) < maxBatch {
			sym, l := int32(0), 0
			for l = 1; l <= tb-pos && l <= maxLen; l++ {
				code := uint64(w) >> uint(tb-pos-l) & (1<<uint(l) - 1)
				if countAt[l] > 0 && code >= firstCode[l] && code < firstCode[l]+uint64(countAt[l]) {
					sym = syms[firstIdx[l]+int(code-firstCode[l])]
					break
				}
			}
			if l > tb-pos || l > maxLen {
				break // next code extends beyond the window
			}
			if e.n == 0 {
				e.first = uint8(l)
			}
			e.syms[e.n] = sym
			e.n++
			pos += l
		}
		e.total = uint8(pos)
	}
	return t, nil
}

// decodeAll drains one sequential bitstream into out[0:n]. out must have
// maxBatch slack beyond n for the fixed-size batch store. Peek zero-pads
// past the end of the buffer, so Skip performs the authoritative bounds
// check: a code that would extend past the last byte is reported as
// truncation, exactly like the historical bit-at-a-time decoder.
func (t *decodeTable) decodeAll(br *bitio.Reader, out []int32, n int) error {
	entries, tb := &t.entries, uint(t.tb)
	for i := 0; i < n; {
		e := &entries[br.Peek(tb)]
		if nb := int(e.n); nb > 0 {
			if i+nb <= n {
				if err := br.Skip(uint(e.total)); err == nil {
					*(*[maxBatch]int32)(out[i:]) = e.syms
					i += nb
					continue
				}
			}
			// Output tail or truncated stream: take exactly one symbol with
			// a precise per-symbol bounds check.
			if err := br.Skip(uint(e.first)); err != nil {
				return fmt.Errorf("huffman: truncated bit stream at symbol %d: %w", i, err)
			}
			out[i] = e.syms[0]
			i++
			continue
		}
		s, err := t.decodeLong(br, i)
		if err != nil {
			return err
		}
		out[i] = s
		i++
	}
	return nil
}

// decodeLong resolves one code longer than the table width by scanning the
// canonical first-code ranges. i only labels the error.
func (t *decodeTable) decodeLong(br *bitio.Reader, i int) (int32, error) {
	maxLen := t.maxLen
	pk := br.Peek(uint(maxLen))
	for l := t.tb + 1; l <= maxLen; l++ {
		code := pk >> uint(maxLen-l)
		if t.countAt[l] > 0 && code >= t.firstCode[l] && code < t.firstCode[l]+uint64(t.countAt[l]) {
			if err := br.Skip(uint(l)); err != nil {
				return 0, fmt.Errorf("huffman: truncated bit stream at symbol %d: %w", i, err)
			}
			return t.syms[t.firstIdx[l]+int(code-t.firstCode[l])], nil
		}
	}
	if br.Remaining() < maxLen {
		return 0, fmt.Errorf("huffman: truncated bit stream at symbol %d: %w", i, bitio.ErrOutOfBits)
	}
	return 0, errors.New("huffman: invalid code in stream")
}
