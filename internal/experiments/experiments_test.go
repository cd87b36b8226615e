package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must be registered.
	want := []string{
		"fig1", "fig2", "fig4", "fig5", "fig9", "fig12", "fig14", "fig15",
		"fig16", "fig17", "fig18", "tab1", "tab2", "tab4", "tab5", "tab6",
		"tab7", "tab8", "tab9",
		"abl-padkind", "abl-padthreshold", "abl-alphabeta", "abl-interp",
		"abl-sampling", "abl-arrange", "abl-curve",
		"ext-halo", "ext-volren",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Fatalf("experiment %q not registered", id)
		}
	}
	// Nothing but the paper's evaluation is registered: system benchmarks
	// belong to bench/.
	if len(All()) != len(want) {
		t.Fatalf("registry has %d experiments, want exactly %d", len(All()), len(want))
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id found")
	}
}

// TestAllExperimentsRunSmall smoke-tests every registered experiment at a
// reduced size: they must complete without error and print a header plus at
// least one data row.
func TestAllExperimentsRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped in -short")
	}
	cfg := Config{Size: 32, Seed: 7, OutDir: t.TempDir()}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, cfg); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			if !strings.Contains(out, "==") {
				t.Fatalf("%s: missing header:\n%s", e.ID, out)
			}
			if len(strings.Split(strings.TrimSpace(out), "\n")) < 3 {
				t.Fatalf("%s: no data rows:\n%s", e.ID, out)
			}
		})
	}
}

func TestEBForTargetCRConverges(t *testing.T) {
	cfg := Config{Size: 32, Seed: 7}
	h, err := nyxT2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := ebForTargetCR(h, core.BaselineSZ3Options, 50)
	if err != nil {
		t.Fatal(err)
	}
	if eb <= 0 {
		t.Fatalf("eb = %g", eb)
	}
	c, err := core.CompressHierarchy(h, core.BaselineSZ3Options(eb))
	if err != nil {
		t.Fatal(err)
	}
	if cr := c.Ratio(h); cr < 25 || cr > 100 {
		t.Fatalf("matched CR %.1f far from target 50", cr)
	}
}

func TestPayloadPSNRIdentical(t *testing.T) {
	cfg := Config{Size: 32, Seed: 7}
	h, err := nyxT2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := payloadPSNR(h, h)
	if !isInf(p) {
		t.Fatalf("payload PSNR of identical hierarchies = %v, want +Inf", p)
	}
}

func isInf(f float64) bool { return f > 1e308 }

// TestExperimentsDeterministic verifies that an experiment produces
// byte-identical output for the same configuration — required for the
// paper-vs-measured rows mrbench prints to be reproducible.
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("slow; skipped in -short")
	}
	cfg := Config{Size: 32, Seed: 5}
	for _, id := range []string{"fig4", "fig18", "tab2"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		var a, b bytes.Buffer
		if err := e.Run(&a, cfg); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(&b, cfg); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("%s output not deterministic", id)
		}
	}
}
