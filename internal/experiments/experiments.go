// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): MPQ vs SMA comparisons, MPQ scaling curves, join-graph
// sensitivity, multi-objective scaling, and the precision-vs-parallelism
// table. Each experiment returns structured series and can render itself
// as an aligned text table; cmd/mpqbench is a thin wrapper around this
// package. Every table is a pure function of its Config: time is virtual,
// on the simulated cluster of cluster.Default(), never read from a clock.
// Wall-clock performance is measured by the separate bench module.
//
// Absolute milliseconds differ from the paper (our substrate is a
// simulated cluster, not the authors' Spark testbed; see the paper's §6,
// cited in PAPER.md, and docs/workloads.md), but the comparisons the
// paper draws — who wins, by what order of magnitude, and how curves
// scale with the worker count — are preserved and asserted by this
// package's tests.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"mpq/internal/query"
	"mpq/internal/workload"
)

// Config scales the experiments. Quick() keeps every experiment under a
// few seconds for CI; Full() uses the paper's query sizes and worker
// counts.
type Config struct {
	// Queries is the number of random queries per data point (the paper
	// uses 20 and reports medians).
	Queries int
	// BaseSeed offsets workload generation for reproducibility.
	BaseSeed int64
	// Full selects paper-scale query sizes and worker counts.
	Full bool
	// Progress, when non-nil, receives one line per completed panel.
	Progress io.Writer
	// Ctx, when non-nil, cancels a running experiment: the simulated
	// workers abort their dynamic programs and every data-point loop
	// checks it, so a long sweep stops within one data point of the
	// cancellation. Already-completed tables are unaffected —
	// cmd/mpqbench flushes each table as it finishes, so an interrupt
	// loses only the experiment in flight.
	Ctx context.Context
}

// context returns the experiment context (Background when unset).
func (c Config) context() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// canceled reports the context's error once it is done, nil before.
func (c Config) canceled() error {
	if c.Ctx != nil && c.Ctx.Err() != nil {
		return context.Cause(c.Ctx)
	}
	return nil
}

// Quick returns the CI-scale configuration.
func Quick() Config {
	return Config{Queries: 5}
}

// FullScale returns the paper-scale configuration.
func FullScale() Config {
	return Config{Queries: 20, Full: true}
}

func (c Config) progressf(format string, args ...any) {
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, format+"\n", args...)
	}
}

// Point is one measured data point of a series.
type Point struct {
	Workers int
	// TimeMs is total optimization time (virtual, master-observed).
	TimeMs float64
	// WTimeMs is the slowest worker's compute time.
	WTimeMs float64
	// Bytes is total network traffic.
	Bytes float64
	// MemoryRelations is the peak per-worker memo size.
	MemoryRelations float64
	// CI95 is the half-width of the 95% confidence interval of TimeMs
	// (only filled by experiments that report means, like Figure 3).
	CI95 float64
}

// Series is one curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Caption string
	Columns []string
	Rows    [][]string
}

// WriteJSON writes the table as one JSON object. cmd/mpqbench -json
// emits one such object per table (JSON Lines), the one machine-readable
// form; CI's sweeps job archives it per commit.
func (t *Table) WriteJSON(w io.Writer) error {
	type jsonTable struct {
		Title   string     `json:"title"`
		Caption string     `json:"caption,omitempty"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	enc := json.NewEncoder(w)
	return enc.Encode(jsonTable{Title: t.Title, Caption: t.Caption, Columns: t.Columns, Rows: t.Rows})
}

// Render writes the table in aligned text form.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	if t.Caption != "" {
		fmt.Fprintf(w, "  %s\n", t.Caption)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	fmt.Fprintln(w)
}

// median returns the median of xs (xs is sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// meanCI returns the arithmetic mean and the half-width of the normal
// 95% confidence interval.
func meanCI(xs []float64) (mean, ci float64) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	sd := math.Sqrt(ss / float64(len(xs)-1))
	return mean, 1.96 * sd / math.Sqrt(float64(len(xs)))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// workerCounts returns 1, 2, 4, ... up to min(maxAllowed, cap).
func workerCounts(maxAllowed, cap int) []int {
	var out []int
	for m := 1; m <= maxAllowed && m <= cap; m *= 2 {
		out = append(out, m)
	}
	return out
}

// fmtFloat renders measurement values compactly.
func fmtFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e6 || math.Abs(v) < 1e-2:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// batch generates the experiment's query set: Queries random queries of
// n tables with the given join-graph shape.
func (c Config) batch(n int, shape workload.Shape) ([]*query.Query, error) {
	return workload.Batch(workload.NewParams(n, shape), c.BaseSeed, c.Queries)
}
