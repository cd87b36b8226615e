//go:build !race

// Package raceflag tells tests whether the race detector is on. Allocation
// budgets (testing.AllocsPerRun) skip under it: the detector's own
// bookkeeping allocates, so malloc counts mean nothing there.
package raceflag

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
