// Interleaved multi-lane entropy format — read-only legacy. Nothing in this
// repository writes it any more (sz2/sz3 call Encode), but containers
// written while it was an option embed it, so Decode keeps reading it. The
// writer dealt the symbol stream round-robin into N fixed-stride lanes
// (lane j holds symbols j, j+N, j+2N, …), encoded every lane against ONE
// shared canonical code table, and framed them as:
//
//	uvarint InterleavedTag     format discriminator (see below)
//	uvarint n                  total symbol count
//	uvarint lanes              power of two in [2, maxLanes], ≤ n
//	dictionary                 identical serialization to the single-lane format
//	lanes × uvarint            per-lane payload length in bits
//	lane payloads              each byte-aligned, concatenated in lane order
//
// Each lane is a self-contained bitstream; the decoder drains them one
// after another, writing symbols straight into their strided positions of
// the output slice. The fixture writer for the decoder's tests lives in
// interleave_test.go; committed streams of this format are
// internal/{sz2,sz3}/testdata/*lanes4* and
// internal/core/testdata/golden-tac-sz3-lanes4-v3.mrw.
package huffman

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bitio"
	"repro/internal/wire"
)

// InterleavedTag is the wire discriminator for interleaved entropy streams,
// read as the first uvarint where the single-lane format stores its symbol
// count. Its value ("ILVE" with a bit above 2³³) exceeds the maxN
// plausibility bound, so a single-lane-only decoder rejects an interleaved
// stream with a header error instead of misparsing it. Re-exported by
// internal/codec as EntropyInterleavedTag for the wire-constant registry.
const InterleavedTag = 0x2494C5645

// maxLanes bounds the wire lane count.
const maxLanes = 64

// appendInterleaved decodes the interleaved format, appending the symbols
// to dst. r starts just past the InterleavedTag uvarint.
func (s *scratch) appendInterleaved(dst []int32, r *wire.Reader) ([]int32, error) {
	un := r.Uvarint(maxN)
	ul := r.Uvarint(maxLanes)
	uk := r.Uvarint(un)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("huffman: interleaved header: %w", err)
	}
	if un == 0 || ul < 2 || ul&(ul-1) != 0 || ul > un || uk == 0 {
		return nil, fmt.Errorf("huffman: implausible interleaved header n=%d lanes=%d k=%d", un, ul, uk)
	}
	n, lanes := int(un), int(ul)
	syms, lens, err := s.parseDict(r, int(uk))
	if err != nil {
		return nil, err
	}
	t, err := s.table(syms, lens, n)
	if err != nil {
		return nil, err
	}

	// Lane header: per-lane bit lengths. Any single lane's payload is a
	// subrange of the bytes still ahead, which bounds each length; the
	// byte-range slicing below is the exact check.
	var laneBitsArr [maxLanes]int
	laneBits := laneBitsArr[:lanes]
	for j := range laneBits {
		laneBits[j] = int(r.Uvarint(uint64(r.Len()) * 8))
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("huffman: interleaved lane lengths: %w", err)
	}
	buf := r.Rest()
	// Every lane is checked before the output allocation below, so a
	// corrupt header cannot demand gigabytes for a few bytes of stream.
	laneSyms := func(j int) int { return (n - j + lanes - 1) / lanes }
	off := 0
	for j, lb := range laneBits {
		// Every code is at least one bit, so a lane's bit length bounds its
		// symbol count; this also ties n to the actual payload size.
		if rem := laneSyms(j); lb < rem {
			return nil, fmt.Errorf("huffman: lane %d: %d bits cannot hold %d symbols", j, lb, rem)
		}
		blen := (lb + 7) / 8
		if blen > len(buf)-off {
			return nil, fmt.Errorf("huffman: truncated lane %d payload: %w", j, bitio.ErrOutOfBits)
		}
		off += blen
	}

	base := len(dst)
	out := slices.Grow(dst, n)[:base+n]
	off = 0
	for j, lb := range laneBits {
		blen := (lb + 7) / 8
		br := bitio.NewReaderBits(buf[off:off+blen], lb)
		off += blen
		if err := t.decodeStride(br, out[base:], j, laneSyms(j), lanes); err != nil {
			return nil, err
		}
		// A well-formed lane consumes exactly its advertised bits. A
		// mismatch means the header and payload disagree — corruption the
		// bit-exact lane bound can catch even when every code decoded
		// "successfully".
		if left := br.Remaining(); left != 0 {
			return nil, fmt.Errorf("huffman: lane %d consumed %d of %d bits", j, lb-left, lb)
		}
	}
	return out, nil
}

// decodeStride drains one lane: rem symbols into out[pos], out[pos+stride],
// …. It is decodeAll with strided stores — the same batch fast path,
// per-symbol exact fallback near the lane's bit bound, and inline long-code
// resolution. Each batch is stored with maxBatch unconditional strided
// stores: the indices pos, pos+stride, …, pos+6·stride stay inside the
// lane's own output column, so the slots past a short batch hold the same
// lane's future positions and are overwritten by its later batches (or by
// the exact tail). With rem ≥ maxBatch the farthest slot is still inside
// the column, so no slack rows are needed.
func (t *decodeTable) decodeStride(br *bitio.Reader, out []int32, pos, rem, stride int) error {
	entries, tb := &t.entries, uint(t.tb)
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
	return nil
}
