// Positive fixtures: wire literals at use sites, each a way format v5+
// could silently fork.
package positive

import (
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/layout"
)

func compare(version byte) bool {
	return version == 3 // want `version compared against literal 3`
}

func rangeCheck(version byte) bool {
	return version < 1 // want `version compared against literal 1`
}

func fieldSelector(h struct{ FormatVersion int }) bool {
	return h.FormatVersion != 2 // want `version compared against literal 2`
}

func assign() {
	var headerVersion int
	headerVersion = 4 // want `version assigned literal 4`
	_ = headerVersion
}

func switchOver(version byte) int {
	switch version {
	case 1: // want `switch over version with literal case 1`
		return 1
	case 2: // want `switch over version with literal case 2`
		return 2
	}
	return 0
}

func lookup() {
	codec.ByID(3) // want `codec\.ByID called with literal wire ID 3`
}

func convert() core.Compressor {
	return core.Compressor(2) // want `literal 2 converted to repro/internal/core\.Compressor`
}

func implicit() {
	var c core.Compressor = 1 // want `literal 1 used as repro/internal/core\.Compressor value`
	_ = c
	var a core.Arrangement = 1 // want `literal 1 used as repro/internal/layout\.Arrangement value`
	_ = a
}

// The arrangement enum lives in layout; core's name for it is an alias, and
// a literal is flagged through either name.
func convertArrangement() (core.Arrangement, layout.Arrangement) {
	return core.Arrangement(2), layout.Arrangement(3) // want `literal 2 converted to repro/internal/layout\.Arrangement` `literal 3 converted to repro/internal/layout\.Arrangement`
}

func magic(blob []byte) bool {
	return string(blob[:4]) == "MRWF" // want `wire magic compared as string literal "MRWF"`
}
