package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// declared is BENCHMARK.json as the smoke test reads it.
type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricDecl            `json:"end_to_end"`
	PerLayer  []metricDecl            `json:"per_layer"`
}

type metricDecl struct{ Name, Unit string }

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// smokeRun runs one workload small: 32³ fields, phases of a few hundredths
// of a second, four mix units.
func smokeRun(t *testing.T, name string, seed int64, trace bool) *result {
	t.Helper()
	res, err := runWorkload(findWorkload(name), runConfig{seed: seed, seconds: 0.4, trace: trace, size: 32, workDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", name, res.failed, res.attempted, res.firstErr)
	}
	return res
}

// TestDeclaredMetricsEmitted checks that every workload BENCHMARK.json names
// emits every end-to-end and per-layer metric it declares, once, with the
// declared unit, under a well-formed name — and nothing undeclared.
func TestDeclaredMetricsEmitted(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json names %d workloads, the table has %d", len(d.Workloads), len(workloads()))
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, want []metricDecl, got map[string]metricValue) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics emitted, %d declared", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for _, m := range want {
			if !nameOK.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, m.Name)
			}
			seen[m.Name] = true
			v, ok := got[m.Name]
			if !ok {
				t.Errorf("%s: %s declared but not emitted", kind, m.Name)
			} else if v.Unit != m.Unit {
				t.Errorf("%s: %s has unit %q, declared %q", kind, m.Name, v.Unit, m.Unit)
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s is %v", kind, m.Name, v.Value)
			}
		}
	}
	for _, dw := range d.Workloads {
		if findWorkload(dw.Name) == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %q", dw.Name)
		}
		res := smokeRun(t, dw.Name, 1, true)
		check(dw.Name+" end_to_end", d.EndToEnd, res.line(false).Metrics)
		check(dw.Name+" per_layer", d.PerLayer, res.line(true).Metrics)
		for _, m := range d.EndToEnd {
			if res.Metrics[m.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must be positive", dw.Name, m.Name, res.Metrics[m.Name])
			}
		}
	}
}

// TestSeedDeterminism: the same seed gives the same op schedule and
// bit-identical quality numbers, and nearly the same allocation count; a
// different seed gives a different schedule.
func TestSeedDeterminism(t *testing.T) {
	for _, name := range []string{"batch_amr_sz2", "serve_warm"} {
		a, b := smokeRun(t, name, 7, false), smokeRun(t, name, 7, false)
		if a.Schedule != b.Schedule {
			t.Errorf("%s: same seed, schedules %x and %x", name, a.Schedule, b.Schedule)
		}
		for _, m := range []string{"compression_ratio", "psnr_db"} {
			if a.Metrics[m] != b.Metrics[m] {
				t.Errorf("%s: same seed, %s %v and %v", name, m, a.Metrics[m], b.Metrics[m])
			}
		}
		// Wider than the 2 % the full-size runs hold: a 32³ op makes two
		// hundred allocations, and one GC cycle emptying the flate pool adds
		// five to that (seen: 199.25 and 203.75).
		if x, y := a.Metrics["allocs_per_op"], b.Metrics["allocs_per_op"]; math.Abs(x-y) > 0.05*x {
			t.Errorf("%s: same seed, allocs_per_op %v and %v differ by more than 5 %%", name, x, y)
		}
		w := findWorkload(name)
		in, err := makeInputs(w, 32, 8)
		if err != nil {
			t.Fatal(err)
		}
		if w.scheduleHash(8, 0.4, in) == a.Schedule {
			t.Errorf("%s: seeds 7 and 8 give the same schedule", name)
		}
	}
}

// TestQuietMedian: a slow stretch spoils the windows it overlaps and no
// others, so the quiet median ignores it while the plain median does not.
func TestQuietMedian(t *testing.T) {
	samples := make([]float64, 160)
	for i := range samples {
		samples[i] = 1 + 0.01*float64(i%5) // 1.00 … 1.04, median 1.02
	}
	if got := quietMedian(samples); got != 1.02 {
		t.Errorf("steady samples: quiet median %v, want 1.02", got)
	}
	for i := 30; i < 130; i++ { // six of eight windows run 3× slow, wholly or in part
		samples[i] *= 3
	}
	if got := quietMedian(samples); got != 1.02 {
		t.Errorf("slow stretch: quiet median %v, want 1.02", got)
	}
	if got := median(samples); got < 3 {
		t.Errorf("slow stretch: plain median %v, expected it to be dragged above 3", got)
	}
	if got := quietMedian([]float64{5, 1, 3}); got != 1 {
		t.Errorf("fewer samples than windows: got %v, want the lowest sample 1", got)
	}
}
