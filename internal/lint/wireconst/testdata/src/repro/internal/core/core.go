// Package core is a fixture stub of repro/internal/core: just the wire
// enum types and their named constants, enough for the analyzer's
// type-based checks to resolve. Arrangement is an alias of layout's, as in
// the real package.
package core

import "repro/internal/layout"

type Compressor byte

type Arrangement = layout.Arrangement

const (
	SZ3 Compressor = 0
	SZ2 Compressor = 1
	ZFP Compressor = 2
)

const (
	ArrangeLinear = layout.Linear
	ArrangeTAC    = layout.TAC
)
