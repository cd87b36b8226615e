// Command mrbench regenerates the paper's tables and figures.
//
// Usage:
//
//	mrbench -list
//	mrbench -exp fig15 [-size 64] [-seed 42] [-out dir] [-workers N]
//	mrbench -exp all
//
// Each experiment prints tab-separated rows matching the corresponding
// table/figure of the paper; -list is the index. System throughput and
// latency (codecs, container reads, serving) are measured by bench/run.sh,
// not here.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available experiments")
		exp     = flag.String("exp", "", "experiment id to run, or 'all'")
		size    = flag.Int("size", 64, "fine-grid edge (multiple of 16; power of two for spectra)")
		seed    = flag.Int64("seed", 42, "synthetic-data seed")
		out     = flag.String("out", "", "directory for rendered PNG artifacts (optional)")
		workers = flag.Int("workers", 0, "concurrent compression workers (0 = all cores, 1 = serial)")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-18s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun with -exp <id> or -exp all")
		}
		return
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}
	cfg := experiments.Config{Size: *size, Seed: *seed, OutDir: *out, Workers: *workers}

	if *exp == "all" {
		for _, e := range experiments.All() {
			if err := e.Run(os.Stdout, cfg); err != nil {
				fatal(fmt.Errorf("%s: %w", e.ID, err))
			}
		}
		return
	}
	e, ok := experiments.ByID(*exp)
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q (use -list)", *exp))
	}
	if err := e.Run(os.Stdout, cfg); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mrbench:", err)
	os.Exit(1)
}
