// Package layout is a fixture stub of repro/internal/layout: just the
// Arrangement wire enum and its named constants.
package layout

type Arrangement byte

const (
	Linear Arrangement = 0
	Stack  Arrangement = 1
	TAC    Arrangement = 2
)
