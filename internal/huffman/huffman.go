// Package huffman implements a canonical Huffman coder for the integer
// quantization codes produced by the error-bounded compressors, mirroring the
// entropy stage of SZ. The encoded stream is self-describing: it carries the
// symbol dictionary and canonical code lengths, followed by the bit stream.
//
// Encode writes one sequential bitstream. Decode also reads the legacy
// interleaved multi-lane format (see interleave.go), which shares the
// dictionary and code assignment and is no longer written.
//
// Building a code costs a fixed handful of allocations whatever the alphabet:
// the histogram is sized from a count of its non-zero bins, the Huffman tree
// is two flat arrays (weights and parents) merged through an index heap of
// plain ints, and the stream buffer is sized once for header, dictionary and
// payload. Code lengths depend only on the order in which the heap yields
// its minima, which the total order (weight, node index) fixes, so they — and
// the streams — are the same as when the tree was built with container/heap
// (lengths_test.go keeps that build as the reference).
package huffman

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/bitio"
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

// maxN bounds the plausible symbol count in a stream header. Both wire
// formats enforce it before allocating, and the interleaved format's tag
// (InterleavedTag) is deliberately chosen above it so a single-lane-only
// decoder rejects interleaved streams instead of misparsing them.
const maxN = 1 << 33

// codeLengths computes Huffman code lengths for the given symbol
// frequencies, flattening a copy of them if the depth would exceed
// maxCodeLen. freqs itself is left alone: it sizes the bit stream.
func codeLengths(freqs []uint64) []int {
	lengths := buildLengths(freqs)
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
		lengths = buildLengths(freqs)
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
// always has a higher index than its children.
func buildLengths(freqs []uint64) []int {
	n := len(freqs)
	if n == 1 {
		return []int{1}
	}
	weight := make([]uint64, n, 2*n-1)
	copy(weight, freqs)
	parent := make([]int, 2*n-1)
	h := treeHeap{weight: weight, idx: make([]int, n)}
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

// canonicalCodes assigns canonical codes given symbols sorted by (length,
// symbol). Returns code values aligned with the sorted order.
func canonicalCodes(lengths []int) []uint64 {
	codes := make([]uint64, len(lengths))
	var code uint64
	prevLen := 0
	for i, l := range lengths {
		code <<= uint(l - prevLen)
		codes[i] = code
		code++
		prevLen = l
	}
	return codes
}

// denseSpanLimit caps the symbol range for which histogram and code lookup
// use dense offset-indexed arrays instead of maps. SZ quantization codes
// cluster tightly around the zero code, so the dense path is the common one;
// the limit keeps degenerate wide-range inputs from allocating huge tables.
const denseSpanLimit = 1 << 22

// histogram counts symbol occurrences, returning symbols in ascending order
// with aligned frequencies. When the symbol range is small (the SZ
// quantization-code case) it uses a dense offset-indexed counting array; the
// map fallback covers arbitrary ranges. Both produce identical results. The
// returned minS/span/dense describe the range so the emit stage can make the
// same dense-vs-map choice without recomputing it.
func histogram(data []int32) (symbols []int32, freqs []uint64, minS int32, span int64, dense bool) {
	minS, maxS := data[0], data[0]
	for _, v := range data {
		if v < minS {
			minS = v
		}
		if v > maxS {
			maxS = v
		}
	}
	span = int64(maxS) - int64(minS) + 1
	limit := int64(4*len(data)) + 1024
	dense = span <= denseSpanLimit && span <= limit
	if dense {
		counts := make([]uint64, span)
		for _, v := range data {
			counts[int64(v)-int64(minS)]++
		}
		k := 0
		for _, c := range counts {
			if c != 0 {
				k++
			}
		}
		symbols, freqs = make([]int32, 0, k), make([]uint64, 0, k)
		for i, c := range counts {
			if c != 0 {
				symbols = append(symbols, minS+int32(i))
				freqs = append(freqs, c)
			}
		}
		return symbols, freqs, minS, span, dense
	}
	freq := make(map[int32]uint64)
	for _, v := range data {
		freq[v]++
	}
	symbols = make([]int32, 0, len(freq))
	for s := range freq {
		symbols = append(symbols, s)
	}
	slices.Sort(symbols)
	freqs = make([]uint64, len(symbols))
	for i, s := range symbols {
		freqs[i] = freq[s]
	}
	return symbols, freqs, minS, span, dense
}

// sym is one dictionary entry: a symbol and its canonical code length.
type sym struct {
	s int32
	l int
}

type symCode struct {
	code uint64
	len  uint8
}

// coder holds one canonical code assignment — the sorted dictionary, the
// code values, and the symbol→code lookup.
type coder struct {
	ss        []sym    // dictionary sorted by (length, symbol)
	codes     []uint64 // canonical codes aligned with ss
	totalBits int      // Σ freq·len over the whole input

	// Symbol→code lookup, mirroring histogram's dense-vs-map choice.
	dense   bool
	minS    int32
	codeVal []uint64 // dense: indexed by symbol-minS
	codeLen []uint8
	codeOf  map[int32]symCode // map fallback
}

// newCoder builds the canonical code assignment for data (which must be
// non-empty).
func newCoder(data []int32) *coder {
	symbols, freqs, minS, span, dense := histogram(data)

	lengths := codeLengths(freqs)
	totalBits := 0
	for i, f := range freqs {
		totalBits += int(f) * lengths[i]
	}

	// Sort symbols canonically: by (length, symbol value).
	ss := make([]sym, len(symbols))
	for i := range symbols {
		ss[i] = sym{symbols[i], lengths[i]}
	}
	slices.SortFunc(ss, func(a, b sym) int {
		if a.l != b.l {
			return cmp.Compare(a.l, b.l)
		}
		return cmp.Compare(a.s, b.s)
	})
	sortedLens := make([]int, len(ss))
	for i := range ss {
		sortedLens[i] = ss[i].l
	}
	codes := canonicalCodes(sortedLens)

	c := &coder{ss: ss, codes: codes, totalBits: totalBits, dense: dense, minS: minS}
	if dense {
		c.codeVal = make([]uint64, span)
		c.codeLen = make([]uint8, span)
		for i, e := range ss {
			idx := int64(e.s) - int64(minS)
			c.codeVal[idx] = codes[i]
			c.codeLen[idx] = uint8(e.l)
		}
	} else {
		c.codeOf = make(map[int32]symCode, len(ss))
		for i, e := range ss {
			c.codeOf[e.s] = symCode{codes[i], uint8(e.l)}
		}
	}
	return c
}

// streamBuf returns an empty buffer with room for a whole stream — the
// symbol count, the dictionary, and the payload — so that building the
// stream allocates once instead of growing through the header.
func (c *coder) streamBuf() []byte {
	dict := binary.MaxVarintLen64 + len(c.ss)*(binary.MaxVarintLen64+1)
	return make([]byte, 0, binary.MaxVarintLen64+dict+(c.totalBits+7)/8)
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

// emit appends the codes for data to bw.
func (c *coder) emit(bw *bitio.Writer, data []int32) {
	if c.dense {
		codeVal, codeLen, minS := c.codeVal, c.codeLen, int64(c.minS)
		for _, v := range data {
			idx := int64(v) - minS
			bw.WriteBits(codeVal[idx], uint(codeLen[idx]))
		}
		return
	}
	for _, v := range data {
		sc := c.codeOf[v]
		bw.WriteBits(sc.code, uint(sc.len))
	}
}

// Encode compresses a sequence of int32 symbols into the single-lane format.
// The output is self-describing and decoded by Decode.
func Encode(data []int32) []byte {
	if len(data) == 0 {
		var out []byte
		out = binary.AppendUvarint(out, 0)
		out = binary.AppendUvarint(out, 0)
		return out
	}
	c := newCoder(data)

	out := c.streamBuf()
	out = binary.AppendUvarint(out, uint64(len(data)))
	out = c.appendDict(out)

	// Emit the bit stream. The writer appends to the header/dictionary
	// buffer and is pre-grown to the exact stream size (Σ freq·len), so the
	// hot loop never reallocates.
	bw := bitio.NewWriterAppend(out)
	bw.Grow(c.totalBits)
	c.emit(bw, data)
	return bw.Finish()
}

// Decode reverses Encode, and reads the legacy interleaved format: the
// first uvarint distinguishes the two (InterleavedTag is not a plausible
// symbol count).
func Decode(buf []byte) ([]int32, error) {
	if tag, m := binary.Uvarint(buf); m > 0 && tag == InterleavedTag {
		return decodeInterleaved(buf[m:])
	}
	n, k, err := readHeader(&buf)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return []int32{}, nil
	}
	if k == 0 {
		return nil, errors.New("huffman: zero symbols for nonzero data")
	}
	syms, lens, buf, err := parseDict(buf, k)
	if err != nil {
		return nil, err
	}
	t, err := newDecodeTable(syms, lens, n)
	if err != nil {
		return nil, err
	}
	// Every code is at least one bit, so the payload bounds the symbol
	// count; checking before the allocation below keeps a corrupt header
	// from demanding gigabytes for a few bytes of stream.
	if n > len(buf)*8 {
		return nil, fmt.Errorf("huffman: %d-byte stream cannot hold %d symbols: %w", len(buf), n, bitio.ErrOutOfBits)
	}
	br := bitio.NewReader(buf)
	// maxBatch slack lets the batch path store a full fixed-size array (a
	// few plain moves instead of a variable-length copy); the tail beyond n
	// is trimmed on return and never decoded.
	out := make([]int32, n+maxBatch)
	if err := t.decodeAll(br, out, n); err != nil {
		return nil, err
	}
	return out[:n:n], nil
}

// parseDict reads the k-entry dictionary (zigzag-delta symbols + length
// bytes) and checks it is sorted by (length, symbol) as canonical decode
// requires. It returns the symbols, lengths, and the remaining bytes.
func parseDict(buf []byte, k int) (syms []int32, lens []int, rest []byte, err error) {
	syms = make([]int32, k)
	lens = make([]int, k)
	prev := int64(0)
	for i := 0; i < k; i++ {
		delta, m := binary.Varint(buf)
		if m <= 0 {
			return nil, nil, nil, errors.New("huffman: truncated dictionary")
		}
		buf = buf[m:]
		prev += delta
		if prev > math.MaxInt32 || prev < math.MinInt32 {
			return nil, nil, nil, errors.New("huffman: symbol out of range")
		}
		syms[i] = int32(prev)
		if len(buf) == 0 {
			return nil, nil, nil, errors.New("huffman: truncated lengths")
		}
		lens[i] = int(buf[0])
		if lens[i] == 0 || lens[i] > maxCodeLen+1 {
			return nil, nil, nil, fmt.Errorf("huffman: invalid code length %d", lens[i])
		}
		buf = buf[1:]
	}
	for i := 1; i < k; i++ {
		if lens[i] < lens[i-1] {
			return nil, nil, nil, errors.New("huffman: dictionary not canonical")
		}
	}
	return syms, lens, buf, nil
}

// maxBatch is the number of symbols one decode-table entry can hold.
const maxBatch = 7

type tableEntry struct {
	n     uint8 // symbols fully decoded within the window
	total uint8 // bits consumed by those n symbols
	first uint8 // bit length of the first symbol; 0 → long-code fallback
	syms  [maxBatch]int32
}

// decodeTable is the table-driven canonical decoder state, shared by the
// single-lane loop and every lane of an interleaved stream (the lanes share
// one code table by construction).
//
// The primary table maps every possible value of the next tb bits to the
// symbols that decode from it. Because SZ quantization streams are dominated
// by 1–3-bit codes, one window usually holds several complete symbols, so
// each entry stores the whole batch — one Peek/lookup/Skip round-trip emits
// up to maxBatch symbols, amortizing the serial bit-position dependency that
// otherwise bounds Huffman decode throughput. Codes longer than tb fall back
// to the canonical first-code scan.
type decodeTable struct {
	syms      []int32
	maxLen    int
	tb        int
	firstCode []uint64
	firstIdx  []int
	countAt   []int
	entries   []tableEntry
}

// newDecodeTable validates the code lengths (Kraft sum) and fills the lookup
// table. n is the total symbol count of the stream, used only to size the
// table for small streams.
func newDecodeTable(syms []int32, lens []int, n int) (*decodeTable, error) {
	k := len(syms)
	codes := canonicalCodes(lens)

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
	firstCode := make([]uint64, maxLen+2)
	firstIdx := make([]int, maxLen+2)
	countAt := make([]int, maxLen+2)
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
	table := make([]tableEntry, 1<<uint(tb))
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
	return &decodeTable{
		syms: syms, maxLen: maxLen, tb: tb,
		firstCode: firstCode, firstIdx: firstIdx, countAt: countAt,
		entries: table,
	}, nil
}

// decodeAll drains one sequential bitstream into out[0:n]. out must have
// maxBatch slack beyond n for the fixed-size batch store. Peek zero-pads
// past the end of the buffer, so Skip performs the authoritative bounds
// check: a code that would extend past the last byte is reported as
// truncation, exactly like the historical bit-at-a-time decoder.
func (t *decodeTable) decodeAll(br *bitio.Reader, out []int32, n int) error {
	entries, tb := t.entries, uint(t.tb)
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

func readHeader(buf *[]byte) (n, k int, err error) {
	un, m := binary.Uvarint(*buf)
	if m <= 0 {
		return 0, 0, errors.New("huffman: truncated header")
	}
	*buf = (*buf)[m:]
	uk, m := binary.Uvarint(*buf)
	if m <= 0 {
		return 0, 0, errors.New("huffman: truncated header")
	}
	*buf = (*buf)[m:]
	if un > maxN || uk > un+1 {
		return 0, 0, fmt.Errorf("huffman: implausible header n=%d k=%d", un, uk)
	}
	return int(un), int(uk), nil
}
