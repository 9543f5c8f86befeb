// Command mpqbench regenerates the paper's tables and figures on the
// simulated shared-nothing cluster. Every table is a pure function of
// the flags: time is virtual, so two runs with the same flags print the
// same bytes. Wall-clock performance is the bench module's job.
//
// Usage:
//
//	mpqbench -experiment NAME [flags]
//
// NAME is an experiment registered in internal/experiments (-help lists
// them, in the paper's order) or "all", which runs them in that order.
//
// Flags:
//
//	-full        paper-scale query sizes and worker counts (slow)
//	-queries N   random queries per data point (default 5; paper used 20)
//	-seed N      base workload seed
//	-quiet       suppress progress lines
//	-json        emit JSON Lines (one object per table) instead of
//	             aligned text
//	-cpuprofile F  write a CPU profile of the run to F (runtime/pprof;
//	             docs/perf.md §4 has the recipe for ranking inner-loop
//	             candidates with it)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"mpq/internal/cliutil"
	"mpq/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mpqbench:", err)
		os.Exit(1)
	}
}

func run() error {
	experiment := flag.String("experiment", "all", "which experiment to run ("+strings.Join(experiments.Names(), ", ")+")")
	full := flag.Bool("full", false, "paper-scale sizes (slow)")
	queries := flag.Int("queries", 0, "queries per data point (0 = scale default)")
	seed := flag.Int64("seed", 0, "base workload seed")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	jsonOut := flag.Bool("json", false, "emit JSON Lines (one object per table) instead of aligned text")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	selected, err := experiments.Select(*experiment)
	if err != nil {
		return err
	}
	cfg := experiments.Quick()
	if *full {
		cfg = experiments.FullScale()
	}
	if *queries > 0 {
		cfg.Queries = *queries
	}
	cfg.BaseSeed = *seed
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	// Ctrl-C cancels the sweep cleanly: the experiment in flight aborts
	// within one data point, and every table completed so far has
	// already been flushed to stdout (render runs per experiment), so a
	// partial -json run is a prefix of valid JSON lines rather than a
	// line cut mid-write. A second Ctrl-C force-kills (SignalContext
	// releases the registration after the first).
	ctx, stop := cliutil.SignalContext(context.Background())
	defer stop()
	cfg.Ctx = ctx

	for _, e := range selected {
		if err := ctx.Err(); err != nil {
			return interrupted(err)
		}
		tables, err := e.Run(cfg)
		if errors.Is(err, context.Canceled) {
			return interrupted(err)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if err := render(tables, *jsonOut); err != nil {
			return err
		}
	}
	return nil
}

// interrupted explains a Ctrl-C exit: the sweep stopped cleanly and
// everything already printed is complete output.
func interrupted(err error) error {
	return fmt.Errorf("interrupted — completed tables were flushed, the experiment in flight was discarded: %w", err)
}

// render writes the tables to stdout. It returns a write error rather
// than exiting, so run's deferred CPU-profile flush still happens.
func render(tables []*experiments.Table, asJSON bool) error {
	for _, t := range tables {
		if !asJSON {
			t.Render(os.Stdout)
			continue
		}
		if err := t.WriteJSON(os.Stdout); err != nil {
			return fmt.Errorf("json: %w", err)
		}
	}
	return nil
}
