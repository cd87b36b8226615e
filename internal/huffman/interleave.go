// Interleaved multi-lane entropy format. The encoder deals the symbol
// stream round-robin into N fixed-stride lanes (lane j holds symbols j,
// j+N, j+2N, …), encodes every lane against ONE shared canonical code
// table, and frames them as:
//
//	uvarint InterleavedTag     format discriminator (see below)
//	uvarint n                  total symbol count
//	uvarint lanes              power of two in [2, MaxLanes], ≤ n
//	dictionary                 identical serialization to the single-lane format
//	lanes × uvarint            per-lane payload length in bits
//	lane payloads              each byte-aligned, concatenated in lane order
//
// Each lane is a self-contained bitstream, so the decoder can drain them
// independently: interleaved at batch granularity on one goroutine (the N
// peek→table→skip dependency chains overlap in the pipeline, which is where
// the single-stream speedup comes from on one core) or one goroutine per
// lane for large streams. Both paths write symbols straight into their
// strided positions of the shared output slice — the lanes touch disjoint
// indices, so there is no reassembly copy and no synchronization beyond
// joining the workers.
package huffman

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/bitio"
	"repro/internal/parallel"
)

// InterleavedTag is the wire discriminator for interleaved entropy streams,
// read as the first uvarint where the single-lane format stores its symbol
// count. Its value ("ILVE" with a bit above 2³³) exceeds the maxN
// plausibility bound, so a single-lane-only decoder rejects an interleaved
// stream with a header error instead of misparsing it. Re-exported by
// internal/codec as EntropyInterleavedTag for the wire-constant registry.
const InterleavedTag = 0x2494C5645

// MaxLanes bounds the wire lane count. Beyond ~64 lanes the per-lane
// uvarint headers and partial final bytes cost more than any machine's
// pipeline or core count can repay.
const MaxLanes = 64

// maxAutoLanes caps automatic lane selection well below MaxLanes: the
// measured ILP win flattens out by 8 lanes, and more lanes only dilute the
// per-lane batch locality.
const maxAutoLanes = 8

// autoLaneSymbols is the per-lane symbol mass automatic selection requires
// before adding another lane; below it the lane headers and scheduling
// overhead outweigh the overlap they buy.
const autoLaneSymbols = 1 << 15

// parallelMinSymbols is the stream size below which DecodeWorkers stays on
// the single-goroutine interleaved path even when workers allow more.
const parallelMinSymbols = 1 << 16

// AutoLanes picks a lane count for an n-symbol stream: the largest power of
// two ≤ maxAutoLanes that keeps at least autoLaneSymbols symbols per lane,
// so small streams stay single-lane and large ones get the full overlap.
func AutoLanes(n int) int {
	l := 1
	for l < maxAutoLanes && n >= 2*l*autoLaneSymbols {
		l *= 2
	}
	return l
}

// ValidLanes reports whether l is an acceptable lane request at the Options
// level: any negative value selects automatically, 0 and 1 keep the
// single-lane format, and an explicit count must be a power of two no
// larger than MaxLanes.
func ValidLanes(l int) bool {
	return l <= 1 || (l <= MaxLanes && l&(l-1) == 0)
}

// Lanes reports the lane count of an encoded stream: the wire lane count
// for an interleaved stream, 1 for the single-lane format or anything
// unparseable.
func Lanes(buf []byte) int {
	tag, m := binary.Uvarint(buf)
	if m <= 0 || tag != InterleavedTag {
		return 1
	}
	buf = buf[m:]
	if _, m = binary.Uvarint(buf); m <= 0 { // n
		return 1
	}
	buf = buf[m:]
	ul, m := binary.Uvarint(buf)
	if m <= 0 || ul < 2 || ul > MaxLanes {
		return 1
	}
	return int(ul)
}

// EncodeInterleaved compresses data into lanes interleaved bitstreams
// sharing one code table. lanes < 0 selects the count automatically from
// the stream size (AutoLanes); 0 or 1 produces the single-lane format
// byte-identically to Encode. An explicit count is normalized to a valid
// one (rounded down to a power of two, capped at MaxLanes) and reduced so
// no lane is empty; streams that end up with one lane fall back to Encode.
// Every output decodes with Decode/DecodeWorkers.
func EncodeInterleaved(data []int32, lanes int) []byte {
	if lanes < 0 {
		lanes = AutoLanes(len(data))
	}
	if lanes > MaxLanes {
		lanes = MaxLanes
	}
	for lanes&(lanes-1) != 0 { // round down to a power of two
		lanes &= lanes - 1
	}
	for lanes > 1 && lanes > len(data) {
		lanes /= 2
	}
	if lanes <= 1 {
		return Encode(data)
	}

	c := newCoder(data)
	laneBits := make([]int, lanes)
	j := 0
	for _, v := range data {
		laneBits[j] += c.bitLen(v)
		j++
		if j == lanes {
			j = 0
		}
	}

	// Every lane is padded to a byte, hence the 8 bits apiece.
	out := c.streamBuf(3+lanes, c.totalBits+8*lanes)
	out = binary.AppendUvarint(out, InterleavedTag)
	out = binary.AppendUvarint(out, uint64(len(data)))
	out = binary.AppendUvarint(out, uint64(lanes))
	out = c.appendDict(out)
	for _, b := range laneBits {
		out = binary.AppendUvarint(out, uint64(b))
	}
	// Each lane appends to the same backing buffer and is byte-aligned by
	// Finish, so the whole stream is built in one allocation.
	for j := 0; j < lanes; j++ {
		bw := bitio.NewWriterAppend(out)
		bw.Grow(laneBits[j])
		c.emit(bw, data, j, lanes)
		out = bw.Finish()
	}
	return out
}

// decodeInterleaved decodes the interleaved format. buf starts just past
// the InterleavedTag uvarint.
func decodeInterleaved(buf []byte, workers int) ([]int32, error) {
	un, m := binary.Uvarint(buf)
	if m <= 0 {
		return nil, errInterleavedHeader
	}
	buf = buf[m:]
	if un == 0 || un > maxN {
		return nil, fmt.Errorf("huffman: implausible interleaved n=%d", un)
	}
	ul, m := binary.Uvarint(buf)
	if m <= 0 {
		return nil, errInterleavedHeader
	}
	buf = buf[m:]
	if ul < 2 || ul > MaxLanes || ul&(ul-1) != 0 || ul > un {
		return nil, fmt.Errorf("huffman: invalid lane count %d for n=%d", ul, un)
	}
	n, lanes := int(un), int(ul)
	uk, m := binary.Uvarint(buf)
	if m <= 0 {
		return nil, errInterleavedHeader
	}
	buf = buf[m:]
	if uk == 0 || uk > un {
		return nil, fmt.Errorf("huffman: implausible dictionary size %d for n=%d", uk, un)
	}
	syms, lens, buf, err := parseDict(buf, int(uk))
	if err != nil {
		return nil, err
	}
	t, err := newDecodeTable(syms, lens, n)
	if err != nil {
		return nil, err
	}

	// Lane header: per-lane bit lengths. Any single lane's payload is a
	// subrange of the bytes still ahead, which bounds the uvarint before it
	// is narrowed; the byte-range slicing below is the exact check.
	laneBits := make([]int, lanes)
	for j := range laneBits {
		ub, m := binary.Uvarint(buf)
		if m <= 0 {
			return nil, errInterleavedHeader
		}
		if ub > uint64(len(buf))*8 {
			return nil, fmt.Errorf("huffman: lane %d length %d bits exceeds payload", j, ub)
		}
		buf = buf[m:]
		laneBits[j] = int(ub)
	}
	states := make([]laneState, lanes)
	off := 0
	for j, bits := range laneBits {
		// Every code is at least one bit, so a lane's bit length bounds its
		// symbol count; this also ties n to the actual payload size before
		// the output allocation below.
		if rem := (n - j + lanes - 1) / lanes; bits < rem {
			return nil, fmt.Errorf("huffman: lane %d: %d bits cannot hold %d symbols", j, bits, rem)
		}
		blen := (bits + 7) / 8
		if blen > len(buf)-off {
			return nil, fmt.Errorf("huffman: truncated lane %d payload: %w", j, bitio.ErrOutOfBits)
		}
		states[j] = laneState{
			r:    *bitio.NewReaderBits(buf[off:off+blen], bits),
			bits: bits,
			pos:  j,
			rem:  (n - j + lanes - 1) / lanes,
		}
		off += blen
	}

	out := make([]int32, n)
	if workers <= 0 {
		workers = parallel.Workers()
	}
	if workers > lanes {
		workers = lanes
	}
	if workers <= 1 || n < parallelMinSymbols {
		if err := t.decodeLanesSerial(states, out, lanes); err != nil {
			return nil, err
		}
	} else {
		if _, err := parallel.MapErrWorkers(lanes, workers, func(j int) (struct{}, error) {
			return struct{}{}, t.decodeStride(&states[j], out, lanes)
		}); err != nil {
			return nil, err
		}
	}
	// A well-formed lane consumes exactly its advertised bits. A mismatch
	// means the header and payload disagree — corruption the bit-exact
	// lane bound can catch even when every code decoded "successfully".
	for j := range states {
		if left := states[j].r.Remaining(); left != 0 {
			return nil, fmt.Errorf("huffman: lane %d consumed %d of %d bits", j, states[j].bits-left, states[j].bits)
		}
	}
	return out, nil
}

var errInterleavedHeader = errors.New("huffman: truncated interleaved header")

// laneState is one lane's decode cursor: a bit-bounded reader over its
// slice of the shared payload buffer, the lane's exact bit length, and
// where its next symbol lands in the shared output.
type laneState struct {
	r    bitio.Reader
	bits int // exact payload length in bits
	pos  int // next output index (advances by the lane stride)
	rem  int // symbols still to decode
}

// decodeLanesSerial drains all lanes on the calling goroutine: the unrolled
// fast functions interleave lanes in groups of four (or two) at batch
// granularity, so the independent peek→table→skip dependency chains overlap
// in the CPU pipeline — the single-core payoff of the interleaved format —
// and decodeStride finishes each lane's tail with exact guards.
func (t *decodeTable) decodeLanesSerial(states []laneState, out []int32, lanes int) error {
	switch lanes {
	case 2:
		t.fastLanes2s2(states, out)
	case 4:
		t.fastLanes4s4(states, out)
	case 8:
		t.fastLanes4s8(states[0:4], out)
		t.fastLanes4s8(states[4:8], out)
	default:
		for g := 0; g+4 <= lanes; g += 4 {
			t.fastLanes4(states[g:g+4], out, lanes)
		}
	}
	for j := range states {
		if err := t.decodeStride(&states[j], out, lanes); err != nil {
			return err
		}
	}
	return nil
}

// The lane loops below reuse the single-lane hot path's reader primitives
// (Peek/Skip inline; Skip's failure is the bounds check) but store each
// batch with maxBatch unconditional strided stores: the indices pos,
// pos+stride, …, pos+6·stride are all congruent mod the stride, i.e. they
// stay inside the lane's own output column, so the slots past a short
// batch hold the same lane's future positions and are overwritten by its
// later batches (or by the exact tail). With rem ≥ maxBatch the farthest
// slot is still inside the column, so no slack rows are needed. Long codes
// are resolved inline by decodeLong, keeping the lanes in step.

// fastLanes4 runs four lanes' batch decodes interleaved until one of them
// nears its end (or needs the error path), leaving the residue in states
// for decodeStride to finish.
func (t *decodeTable) fastLanes4(sts []laneState, out []int32, stride int) {
	entries, tb := t.entries, uint(t.tb)
	br0, br1, br2, br3 := &sts[0].r, &sts[1].r, &sts[2].r, &sts[3].r
	p0, p1, p2, p3 := sts[0].pos, sts[1].pos, sts[2].pos, sts[3].pos
	n0, n1, n2, n3 := sts[0].rem, sts[1].rem, sts[2].rem, sts[3].rem
	s := stride
	sh := uint(bits.TrailingZeros(uint(s)))
	s2, s3, s4, s5, s6 := 2*s, 3*s, 4*s, 5*s, 6*s
	for n0 >= maxBatch && n1 >= maxBatch && n2 >= maxBatch && n3 >= maxBatch {
		e0 := &entries[br0.Peek(tb)]
		if nb := int(e0.n); nb > 0 {
			if br0.Skip(uint(e0.total)) != nil {
				break
			}
			out[p0+s6] = e0.syms[6]
			out[p0] = e0.syms[0]
			out[p0+s] = e0.syms[1]
			out[p0+s2] = e0.syms[2]
			out[p0+s3] = e0.syms[3]
			out[p0+s4] = e0.syms[4]
			out[p0+s5] = e0.syms[5]
			p0 += nb << sh
			n0 -= nb
		} else if v, err := t.decodeLong(br0, p0); err == nil {
			out[p0] = v
			p0 += s
			n0--
		} else {
			break // decodeStride re-derives the error with context
		}
		e1 := &entries[br1.Peek(tb)]
		if nb := int(e1.n); nb > 0 {
			if br1.Skip(uint(e1.total)) != nil {
				break
			}
			out[p1+s6] = e1.syms[6]
			out[p1] = e1.syms[0]
			out[p1+s] = e1.syms[1]
			out[p1+s2] = e1.syms[2]
			out[p1+s3] = e1.syms[3]
			out[p1+s4] = e1.syms[4]
			out[p1+s5] = e1.syms[5]
			p1 += nb << sh
			n1 -= nb
		} else if v, err := t.decodeLong(br1, p1); err == nil {
			out[p1] = v
			p1 += s
			n1--
		} else {
			break // decodeStride re-derives the error with context
		}
		e2 := &entries[br2.Peek(tb)]
		if nb := int(e2.n); nb > 0 {
			if br2.Skip(uint(e2.total)) != nil {
				break
			}
			out[p2+s6] = e2.syms[6]
			out[p2] = e2.syms[0]
			out[p2+s] = e2.syms[1]
			out[p2+s2] = e2.syms[2]
			out[p2+s3] = e2.syms[3]
			out[p2+s4] = e2.syms[4]
			out[p2+s5] = e2.syms[5]
			p2 += nb << sh
			n2 -= nb
		} else if v, err := t.decodeLong(br2, p2); err == nil {
			out[p2] = v
			p2 += s
			n2--
		} else {
			break // decodeStride re-derives the error with context
		}
		e3 := &entries[br3.Peek(tb)]
		if nb := int(e3.n); nb > 0 {
			if br3.Skip(uint(e3.total)) != nil {
				break
			}
			out[p3+s6] = e3.syms[6]
			out[p3] = e3.syms[0]
			out[p3+s] = e3.syms[1]
			out[p3+s2] = e3.syms[2]
			out[p3+s3] = e3.syms[3]
			out[p3+s4] = e3.syms[4]
			out[p3+s5] = e3.syms[5]
			p3 += nb << sh
			n3 -= nb
		} else if v, err := t.decodeLong(br3, p3); err == nil {
			out[p3] = v
			p3 += s
			n3--
		} else {
			break // decodeStride re-derives the error with context
		}
	}
	sts[0].pos, sts[1].pos, sts[2].pos, sts[3].pos = p0, p1, p2, p3
	sts[0].rem, sts[1].rem, sts[2].rem, sts[3].rem = n0, n1, n2, n3
}

// decodeStride drains the rest of one lane: rem symbols into out[pos],
// out[pos+stride], …. It is decodeAll with strided stores — the same batch
// fast path, per-symbol exact fallback near the lane's bit bound, and
// inline long-code resolution — and is also the whole per-goroutine body
// when lanes decode in parallel. Different lanes' strided stores touch
// disjoint indices.
func (t *decodeTable) decodeStride(st *laneState, out []int32, stride int) error {
	entries, tb := t.entries, uint(t.tb)
	br := &st.r
	pos, rem := st.pos, st.rem
	s := stride
	sh := uint(bits.TrailingZeros(uint(s)))
	s2, s3, s4, s5, s6 := 2*s, 3*s, 4*s, 5*s, 6*s
	for rem > 0 {
		e := &entries[br.Peek(tb)]
		if nb := int(e.n); nb > 0 {
			if rem >= maxBatch {
				if br.Skip(uint(e.total)) == nil {
					out[pos+s6] = e.syms[6]
					out[pos] = e.syms[0]
					out[pos+s] = e.syms[1]
					out[pos+s2] = e.syms[2]
					out[pos+s3] = e.syms[3]
					out[pos+s4] = e.syms[4]
					out[pos+s5] = e.syms[5]
					pos += nb << sh
					rem -= nb
					continue
				}
			}
			// Lane tail or truncated payload: take exactly one symbol with
			// a precise per-symbol bounds check.
			if err := br.Skip(uint(e.first)); err != nil {
				return fmt.Errorf("huffman: truncated lane at symbol %d: %w", pos, err)
			}
			out[pos] = e.syms[0]
			pos += s
			rem--
			continue
		}
		v, err := t.decodeLong(br, pos)
		if err != nil {
			return err
		}
		out[pos] = v
		pos += s
		rem--
	}
	st.pos, st.rem = pos, rem
	return nil
}

// fastLanes4s4 is fastLanes4 specialized to stride 4: the constant store
// offsets let the compiler fold the addressing and discharge the batch's
// bounds checks against the farthest store.
func (t *decodeTable) fastLanes4s4(sts []laneState, out []int32) {
	entries, tb := t.entries, uint(t.tb)
	br0, br1, br2, br3 := &sts[0].r, &sts[1].r, &sts[2].r, &sts[3].r
	p0, p1, p2, p3 := sts[0].pos, sts[1].pos, sts[2].pos, sts[3].pos
	n0, n1, n2, n3 := sts[0].rem, sts[1].rem, sts[2].rem, sts[3].rem
	for n0 >= maxBatch && n1 >= maxBatch && n2 >= maxBatch && n3 >= maxBatch {
		e0 := &entries[br0.Peek(tb)]
		if nb := int(e0.n); nb > 0 {
			if br0.Skip(uint(e0.total)) != nil {
				break
			}
			out[p0+24] = e0.syms[6]
			out[p0] = e0.syms[0]
			out[p0+4] = e0.syms[1]
			out[p0+8] = e0.syms[2]
			out[p0+12] = e0.syms[3]
			out[p0+16] = e0.syms[4]
			out[p0+20] = e0.syms[5]
			p0 += nb * 4
			n0 -= nb
		} else if v, err := t.decodeLong(br0, p0); err == nil {
			out[p0] = v
			p0 += 4
			n0--
		} else {
			break // decodeStride re-derives the error with context
		}
		e1 := &entries[br1.Peek(tb)]
		if nb := int(e1.n); nb > 0 {
			if br1.Skip(uint(e1.total)) != nil {
				break
			}
			out[p1+24] = e1.syms[6]
			out[p1] = e1.syms[0]
			out[p1+4] = e1.syms[1]
			out[p1+8] = e1.syms[2]
			out[p1+12] = e1.syms[3]
			out[p1+16] = e1.syms[4]
			out[p1+20] = e1.syms[5]
			p1 += nb * 4
			n1 -= nb
		} else if v, err := t.decodeLong(br1, p1); err == nil {
			out[p1] = v
			p1 += 4
			n1--
		} else {
			break // decodeStride re-derives the error with context
		}
		e2 := &entries[br2.Peek(tb)]
		if nb := int(e2.n); nb > 0 {
			if br2.Skip(uint(e2.total)) != nil {
				break
			}
			out[p2+24] = e2.syms[6]
			out[p2] = e2.syms[0]
			out[p2+4] = e2.syms[1]
			out[p2+8] = e2.syms[2]
			out[p2+12] = e2.syms[3]
			out[p2+16] = e2.syms[4]
			out[p2+20] = e2.syms[5]
			p2 += nb * 4
			n2 -= nb
		} else if v, err := t.decodeLong(br2, p2); err == nil {
			out[p2] = v
			p2 += 4
			n2--
		} else {
			break // decodeStride re-derives the error with context
		}
		e3 := &entries[br3.Peek(tb)]
		if nb := int(e3.n); nb > 0 {
			if br3.Skip(uint(e3.total)) != nil {
				break
			}
			out[p3+24] = e3.syms[6]
			out[p3] = e3.syms[0]
			out[p3+4] = e3.syms[1]
			out[p3+8] = e3.syms[2]
			out[p3+12] = e3.syms[3]
			out[p3+16] = e3.syms[4]
			out[p3+20] = e3.syms[5]
			p3 += nb * 4
			n3 -= nb
		} else if v, err := t.decodeLong(br3, p3); err == nil {
			out[p3] = v
			p3 += 4
			n3--
		} else {
			break // decodeStride re-derives the error with context
		}
	}
	sts[0].pos, sts[1].pos, sts[2].pos, sts[3].pos = p0, p1, p2, p3
	sts[0].rem, sts[1].rem, sts[2].rem, sts[3].rem = n0, n1, n2, n3
}

// fastLanes4s8 is fastLanes4 specialized to stride 8: the constant store
// offsets let the compiler fold the addressing and discharge the batch's
// bounds checks against the farthest store.
func (t *decodeTable) fastLanes4s8(sts []laneState, out []int32) {
	entries, tb := t.entries, uint(t.tb)
	br0, br1, br2, br3 := &sts[0].r, &sts[1].r, &sts[2].r, &sts[3].r
	p0, p1, p2, p3 := sts[0].pos, sts[1].pos, sts[2].pos, sts[3].pos
	n0, n1, n2, n3 := sts[0].rem, sts[1].rem, sts[2].rem, sts[3].rem
	for n0 >= maxBatch && n1 >= maxBatch && n2 >= maxBatch && n3 >= maxBatch {
		e0 := &entries[br0.Peek(tb)]
		if nb := int(e0.n); nb > 0 {
			if br0.Skip(uint(e0.total)) != nil {
				break
			}
			out[p0+48] = e0.syms[6]
			out[p0] = e0.syms[0]
			out[p0+8] = e0.syms[1]
			out[p0+16] = e0.syms[2]
			out[p0+24] = e0.syms[3]
			out[p0+32] = e0.syms[4]
			out[p0+40] = e0.syms[5]
			p0 += nb * 8
			n0 -= nb
		} else if v, err := t.decodeLong(br0, p0); err == nil {
			out[p0] = v
			p0 += 8
			n0--
		} else {
			break // decodeStride re-derives the error with context
		}
		e1 := &entries[br1.Peek(tb)]
		if nb := int(e1.n); nb > 0 {
			if br1.Skip(uint(e1.total)) != nil {
				break
			}
			out[p1+48] = e1.syms[6]
			out[p1] = e1.syms[0]
			out[p1+8] = e1.syms[1]
			out[p1+16] = e1.syms[2]
			out[p1+24] = e1.syms[3]
			out[p1+32] = e1.syms[4]
			out[p1+40] = e1.syms[5]
			p1 += nb * 8
			n1 -= nb
		} else if v, err := t.decodeLong(br1, p1); err == nil {
			out[p1] = v
			p1 += 8
			n1--
		} else {
			break // decodeStride re-derives the error with context
		}
		e2 := &entries[br2.Peek(tb)]
		if nb := int(e2.n); nb > 0 {
			if br2.Skip(uint(e2.total)) != nil {
				break
			}
			out[p2+48] = e2.syms[6]
			out[p2] = e2.syms[0]
			out[p2+8] = e2.syms[1]
			out[p2+16] = e2.syms[2]
			out[p2+24] = e2.syms[3]
			out[p2+32] = e2.syms[4]
			out[p2+40] = e2.syms[5]
			p2 += nb * 8
			n2 -= nb
		} else if v, err := t.decodeLong(br2, p2); err == nil {
			out[p2] = v
			p2 += 8
			n2--
		} else {
			break // decodeStride re-derives the error with context
		}
		e3 := &entries[br3.Peek(tb)]
		if nb := int(e3.n); nb > 0 {
			if br3.Skip(uint(e3.total)) != nil {
				break
			}
			out[p3+48] = e3.syms[6]
			out[p3] = e3.syms[0]
			out[p3+8] = e3.syms[1]
			out[p3+16] = e3.syms[2]
			out[p3+24] = e3.syms[3]
			out[p3+32] = e3.syms[4]
			out[p3+40] = e3.syms[5]
			p3 += nb * 8
			n3 -= nb
		} else if v, err := t.decodeLong(br3, p3); err == nil {
			out[p3] = v
			p3 += 8
			n3--
		} else {
			break // decodeStride re-derives the error with context
		}
	}
	sts[0].pos, sts[1].pos, sts[2].pos, sts[3].pos = p0, p1, p2, p3
	sts[0].rem, sts[1].rem, sts[2].rem, sts[3].rem = n0, n1, n2, n3
}

// fastLanes2s2 is the stride-2 specialization for two-lane streams.
func (t *decodeTable) fastLanes2s2(sts []laneState, out []int32) {
	entries, tb := t.entries, uint(t.tb)
	br0, br1 := &sts[0].r, &sts[1].r
	p0, p1 := sts[0].pos, sts[1].pos
	n0, n1 := sts[0].rem, sts[1].rem
	for n0 >= maxBatch && n1 >= maxBatch {
		e0 := &entries[br0.Peek(tb)]
		if nb := int(e0.n); nb > 0 {
			if br0.Skip(uint(e0.total)) != nil {
				break
			}
			out[p0+12] = e0.syms[6]
			out[p0] = e0.syms[0]
			out[p0+2] = e0.syms[1]
			out[p0+4] = e0.syms[2]
			out[p0+6] = e0.syms[3]
			out[p0+8] = e0.syms[4]
			out[p0+10] = e0.syms[5]
			p0 += nb * 2
			n0 -= nb
		} else if v, err := t.decodeLong(br0, p0); err == nil {
			out[p0] = v
			p0 += 2
			n0--
		} else {
			break // decodeStride re-derives the error with context
		}
		e1 := &entries[br1.Peek(tb)]
		if nb := int(e1.n); nb > 0 {
			if br1.Skip(uint(e1.total)) != nil {
				break
			}
			out[p1+12] = e1.syms[6]
			out[p1] = e1.syms[0]
			out[p1+2] = e1.syms[1]
			out[p1+4] = e1.syms[2]
			out[p1+6] = e1.syms[3]
			out[p1+8] = e1.syms[4]
			out[p1+10] = e1.syms[5]
			p1 += nb * 2
			n1 -= nb
		} else if v, err := t.decodeLong(br1, p1); err == nil {
			out[p1] = v
			p1 += 2
			n1--
		} else {
			break // decodeStride re-derives the error with context
		}
	}
	sts[0].pos, sts[1].pos = p0, p1
	sts[0].rem, sts[1].rem = n0, n1
}
