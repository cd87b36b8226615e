package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the selfcheck needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// spread summarises one set's values of one metric.
type spread struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarise(vs []float64) spread {
	return spread{Median: median(vs), Q1: percentile(vs, 0.25), Q3: percentile(vs, 0.75), Values: vs}
}

// pairResult compares the two sets on one workload × metric. Bound is 0 and
// OK true for a metric BENCHMARK.json does not gate: its gap is the record of
// how far identical code moves it on this host.
type pairResult struct {
	A     spread  `json:"a"`
	B     spread  `json:"b"`
	Gap   float64 `json:"gap"` // |median B − median A| / median A
	Bound float64 `json:"bound,omitempty"`
	OK    bool    `json:"ok"`
}

// checkedRun is one child run as the selfcheck saw it.
type checkedRun struct {
	Workload string  `json:"workload"`
	Set      string  `json:"set"`
	Seed     int64   `json:"seed"`
	Calib    float64 `json:"host.calib_mb_s"`
	// Suspect marks a run whose host calibration is more than 15 % off the
	// median of all runs: it is still reported and still counted.
	Suspect bool `json:"suspect"`
}

// runChild runs one workload in a fresh process (so peak RSS is its own) and
// returns the metrics the selfcheck compares, by name.
func runChild(workload string, seed int64, seconds float64, workDir string) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-workdir", workDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	// The end-to-end metrics, the demoted ones (printed with the per-layer
	// list, which an untraced run's result line leaves out) and the host's
	// calibration, from the report's "name value unit" lines.
	want := map[string]bool{"host.calib_mb_s": true}
	for _, defs := range [][]metricDef{endToEnd, demoted} {
		for _, d := range defs {
			want[d.name] = true
		}
	}
	metrics := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 3 && want[f[0]] {
			if metrics[f[0]], err = strconv.ParseFloat(f[1], 64); err != nil {
				return nil, fmt.Errorf("%s seed %d: %q: %w", workload, seed, sc.Text(), err)
			}
		}
	}
	return metrics, nil
}

// runSelfcheck runs n passes over all workloads as set A and n as set B of
// this same binary, alternating A, B, B, A, …, and reports per workload ×
// metric both medians, the quartiles and the relative gap. It returns the
// exit code: 1 when the gap of an end-to-end metric exceeds its bound.
func runSelfcheck(n int, seed int64, seconds float64, workDir string) int {
	if n < 3 {
		n = 3
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	var bf benchmarkFile
	if err == nil {
		err = json.Unmarshal(raw, &bf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: selfcheck needs BENCHMARK.json in the current directory:", err)
		return 2
	}
	// values[workload][metric][set]
	values := map[string]map[string]map[string][]float64{}
	var runs []checkedRun
	done := map[string]int{}
	for pass := 0; pass < 2*n; pass++ {
		set := "a"
		if pass%4 == 1 || pass%4 == 2 {
			set = "b"
		}
		s := seed + int64(done[set])
		done[set]++
		for _, w := range workloads() {
			fmt.Fprintf(os.Stderr, "selfcheck: pass %d/%d set %s %s seed %d\n", pass+1, 2*n, set, w.name, s)
			metrics, err := runChild(w.name, s, seconds, workDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			runs = append(runs, checkedRun{Workload: w.name, Set: set, Seed: s, Calib: metrics["host.calib_mb_s"]})
			if values[w.name] == nil {
				values[w.name] = map[string]map[string][]float64{}
			}
			for name, v := range metrics {
				if values[w.name][name] == nil {
					values[w.name][name] = map[string][]float64{}
				}
				values[w.name][name][set] = append(values[w.name][name][set], v)
			}
		}
	}
	var calibs []float64
	for _, r := range runs {
		calibs = append(calibs, r.Calib)
	}
	mc := median(calibs)
	for i := range runs {
		runs[i].Suspect = math.Abs(runs[i].Calib-mc) > 0.15*mc
	}
	bounds := map[string]float64{}
	for _, def := range bf.EndToEnd {
		bounds[def.Name] = def.Bound
	}
	ok := true
	report := map[string]map[string]pairResult{}
	for wname, metrics := range values {
		report[wname] = map[string]pairResult{}
		for name, sets := range metrics {
			a, b := summarise(sets["a"]), summarise(sets["b"])
			pr := pairResult{A: a, B: b, Bound: bounds[name], OK: true}
			if a.Median != 0 {
				pr.Gap = math.Abs(b.Median-a.Median) / math.Abs(a.Median)
			}
			if _, gated := bounds[name]; gated {
				pr.OK = pr.Gap <= pr.Bound
			}
			ok = ok && pr.OK
			report[wname][name] = pr
		}
	}
	out, err := json.MarshalIndent(map[string]any{
		"host": fingerprint(), "n": n, "seed": seed, "seconds": seconds, "ok": ok,
		"workloads": report, "runs": runs,
	}, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("%s\n", out)
	if !ok {
		return 1
	}
	return 0
}
