// Negative fixtures: the guarded patterns the real code uses (modeled on
// internal/index) must produce zero findings.
package negative

import "encoding/binary"

const maxN = 1 << 20

// guarded is the canonical reject-form upper bound before conversion.
func guarded(buf []byte) []byte {
	v, _ := binary.Uvarint(buf)
	if v > maxN {
		return nil
	}
	return make([]byte, v)
}

// guardedFlip bounds the value with the operands swapped, the
// `uint64(len(buf)) < need` truncation-check idiom.
func guardedFlip(buf []byte) []byte {
	v, _ := binary.Uvarint(buf)
	if uint64(len(buf)) < v {
		return nil
	}
	return buf[:v]
}

// guardedDivision is the wrap-free form of a scaled length check: dividing
// the limit cannot overflow, so it genuinely bounds v.
func guardedDivision(buf []byte) []float64 {
	v, _ := binary.Uvarint(buf)
	if v > uint64(len(buf))/8 {
		return nil
	}
	return make([]float64, v)
}

// pinned shows equality pinning the value.
func pinned(buf []byte) []byte {
	v, _ := binary.Uvarint(buf)
	if v != 4 {
		return nil
	}
	return make([]byte, v)
}

// checkedWrapper validates internally (the wire.Reader.Uvarint pattern),
// so neither its body nor its callers are flagged.
func checkedWrapper(buf []byte) (int, bool) {
	v, n := binary.Uvarint(buf)
	if n <= 0 || v > maxN {
		return 0, false
	}
	return int(v), true
}

// useChecked consumes the already-validated int.
func useChecked(buf []byte) []byte {
	n, ok := checkedWrapper(buf)
	if !ok {
		return nil
	}
	return make([]byte, n)
}

// widening is allowed: every uint32 fits an int64/uint64.
func widening(b []byte) int64 {
	return int64(binary.LittleEndian.Uint32(b))
}
