package retbuf_test

import (
	"testing"

	"repro/internal/lint/linttest"
	"repro/internal/lint/retbuf"
)

func TestRetbuf(t *testing.T) {
	linttest.Run(t, linttest.Testdata(t), retbuf.Analyzer, "repro/internal/bitio", "repro/internal/sz2", "repro/internal/flatepool", "coldpkg")
}
