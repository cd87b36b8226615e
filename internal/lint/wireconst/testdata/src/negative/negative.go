// Negative fixtures: named constants everywhere — the shapes the real code
// uses after the cleanup — must produce zero findings.
package negative

import (
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/layout"
)

// The const declaration is the one allowed home for the literals.
const (
	containerMagic   = "MRWF"
	containerVersion = 3
	minVersion       = 1
)

func compare(version byte) bool {
	return version == containerVersion
}

func rangeCheck(version byte) bool {
	return version < minVersion || version > containerVersion
}

func lookup() {
	codec.ByID(codec.SZ3ID)
}

func convert() core.Compressor {
	return core.SZ2
}

func arrangement() (core.Arrangement, layout.Arrangement) {
	return core.ArrangeTAC, layout.Stack
}

// zeroValue: `return 0, err` is the Go error-path idiom, not a wire ID.
func zeroValue(fail bool) (core.Compressor, bool) {
	if fail {
		return 0, false
	}
	return core.ZFP, true
}

func magic(blob []byte) bool {
	return len(blob) >= 4 && string(blob[:4]) == containerMagic
}

// plainCounts: integer literals around ordinary variables stay untouched.
func plainCounts(n int) int {
	return n + 4
}
