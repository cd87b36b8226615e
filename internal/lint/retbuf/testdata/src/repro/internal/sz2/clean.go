// Negative cases: copies, caller-provided destinations, results of other
// functions, documented aliasing and unexported functions all pass.
package sz2

import "encoding/binary"

// Copy returns a fresh copy of the pooled payload.
func Copy() []byte {
	s := getScratch()
	defer pool.Put(s)
	out := make([]byte, len(s.payload))
	copy(out, s.payload)
	return out
}

// AppendTo appends the pooled payload to the caller's destination.
func AppendTo(dst []byte) []byte {
	s := getScratch()
	defer pool.Put(s)
	return append(dst, s.payload...)
}

// Deflated returns what another function made of the pooled payload.
func Deflated() []byte {
	s := getScratch()
	defer pool.Put(s)
	return deflate(s.payload)
}

func deflate(p []byte) []byte { return append([]byte(nil), p...) }

// FramedTo appends the pooled payload behind a length to the caller's
// destination.
func FramedTo(dst []byte) []byte {
	s := getScratch()
	defer pool.Put(s)
	return appendFrame(binary.AppendUvarint(dst, uint64(len(s.payload))), s.payload)
}

// Fresh reassigns the local away from the pooled buffer before returning it.
func Fresh() []byte {
	s := getScratch()
	b := s.payload
	b = make([]byte, len(b))
	pool.Put(s)
	return b
}

// Documented hands the pooled buffer over under a contract.
//
// aliases: the result is the pooled payload, valid until the next call.
func Documented() []byte {
	return getScratch().payload
}

// encode is unexported; the rule covers only the exported API surface.
func encode() []byte {
	return getScratch().payload
}

// Len returns no slice at all.
func Len() int {
	s := getScratch()
	defer pool.Put(s)
	return len(s.payload)
}
