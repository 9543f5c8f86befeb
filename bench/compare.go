package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles prints, per workload and metric, both values and the
// change against the metric's bound, and reports whether b is free of
// violations: no bounded metric worse than a by more than its bound, no
// exact metric different, no more failed checks. Verdicts are on
// reference time; for every time the wall-clock values and their change
// are printed beside it.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s  (%s; seed %d)\nb: %s  (%s; seed %d)\n", pathA, a.Machine, a.Seed, pathB, b.Machine, b.Seed)
	if a.Seed != b.Seed || a.Machine != b.Machine {
		fmt.Fprintln(w, "warning: seeds or machines differ; exact metrics and times are not comparable")
	}
	ok := true
	for _, def := range workloads {
		wa, wb := a.Workloads[def.name], b.Workloads[def.name]
		if wa == nil || wb == nil {
			continue
		}
		fmt.Fprintf(w, "\n== %s (machine slowdown a %.3g, b %.3g) ==\n", def.name, wa.Slowdown, wb.Slowdown)
		if wa.WalkReplays != wb.WalkReplays {
			fmt.Fprintf(w, "  warning: walk metrics rest on %d replays per job in a, %d in b\n", wa.WalkReplays, wb.WalkReplays)
		}
		fmt.Fprintf(w, "  %-34s %12s %12s %9s %6s  %-10s | %12s %12s %9s\n", "metric", "a", "b", "worse by", "bound", "verdict", "a measured", "b measured", "worse by")
		if wb.Failed > wa.Failed {
			fmt.Fprintf(w, "  failed checks rose from %d to %d: VIOLATION\n", wa.Failed, wb.Failed)
			ok = false
		}
		for _, md := range allMetrics() {
			va, inA := wa.Metrics[md.name]
			vb, inB := wb.Metrics[md.name]
			if !inA || !inB {
				continue
			}
			verdict := verdictFor(md, va, vb)
			if verdict == "REGRESSED" || verdict == "DIFFERS" {
				ok = false
			}
			bound := ""
			if md.bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*md.bound)
			}
			wall := ""
			if md.isTime() {
				wall = fmt.Sprintf(" | %12.6g %12.6g %+8.1f%%", va.Wall, vb.Wall, 100*worseBy(md, va.Wall, vb.Wall))
			}
			fmt.Fprintf(w, "  %-34s %12.6g %12.6g %+8.1f%% %6s  %-10s%s\n", md.name, va.Value, vb.Value, 100*worseBy(md, va.Value, vb.Value), bound, verdict, wall)
		}
	}
	return ok, nil
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worseBy is the relative change from a to b, positive when b is worse.
func worseBy(md metricDef, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if md.better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// verdictFor judges one metric. A bounded metric whose own slices
// spread wider than its bound in either input cannot be called
// unchanged: it is unresolved.
func verdictFor(md metricDef, a, b metricValue) string {
	switch {
	case md.exact:
		if a.Value != b.Value {
			return "DIFFERS"
		}
		return "equal"
	case md.bound == 0:
		return ""
	}
	worse := worseBy(md, a.Value, b.Value)
	if worse > md.bound && math.Abs(b.Value-a.Value) > md.slack {
		return "REGRESSED"
	}
	if max(spread(a.Slices), spread(b.Slices)) > md.bound {
		return "unresolved"
	}
	if worse < -md.bound {
		return "improved"
	}
	return "ok"
}
