// Command mpqopt optimizes a join query and prints the chosen plan,
// either from a JSON query spec (see cmd/mpqgen) or from a generated
// random workload. The query runs on any of the five engines (serial,
// local, sim, tcp, daemon) behind the unified mpq.Engine API; Ctrl-C
// cancels a long optimization cleanly (the context aborts the dynamic
// program and tears down workers).
//
// Usage:
//
//	mpqopt -query q.json [flags]
//	mpqopt -tables 12 -shape Star -seed 3 [flags]
//	mpqopt -schema tpch -sf 1 [flags]
//	mpqopt [flags] q1.json q2.json q3.json
//
// Positional query files run as one Engine.OptimizeBatch call under the
// same flags, one output line per file; on -engine tcp the batch shares
// keep-alive connections, one dial per worker for the whole batch.
//
// Flags:
//
//	-space linear|bushy    plan space (default linear)
//	-workers N             plan-space partitions, power of two (default 1)
//	-mo                    multi-objective (time + buffer) optimization
//	-alpha A               approximation factor for -mo (default 10)
//	-robust                robust optimization against selectivity error
//	-robust-band B         uncertainty band for -robust (default 2)
//	-noise E -noise-seed S seeded q-error-style selectivity noise
//	-orders                track interesting orders
//	-engine serial|local|sim|tcp|daemon
//	                       execution engine (default local); tcp needs
//	                       -tcp-workers, sim accepts -kill/-timeout,
//	                       daemon needs -daemon-addr (a running mpqd)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mpq"
	"mpq/internal/catalog"
	"mpq/internal/cliutil"
	"mpq/internal/partition"
	"mpq/internal/spec"
	"mpq/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mpqopt:", err)
		os.Exit(1)
	}
}

func run() error {
	queryFile := flag.String("query", "", "JSON query spec file (- for stdin)")
	tables := flag.Int("tables", 0, "generate a random query with this many tables")
	shape := flag.String("shape", "Star",
		"join graph shape for -tables ("+strings.Join(workload.ShapeNames(), ", ")+")")
	seed := flag.Int64("seed", 0, "workload seed for -tables")
	schemaName := flag.String("schema", "",
		"optimize the canonical join query of a built-in TPC-style schema ("+
			strings.Join(catalog.SchemaNames(), ", ")+")")
	sf := flag.Float64("sf", 1, "scale factor for -schema")
	space := flag.String("space", "linear", "plan space: linear or bushy")
	workers := flag.Int("workers", 1, "number of plan-space partitions (power of two)")
	multi := flag.Bool("mo", false, "multi-objective optimization (time + buffer)")
	alpha := flag.Float64("alpha", 10, "approximation factor for -mo")
	robust := flag.Bool("robust", false, "robust optimization: minimize worst-case cost over a selectivity uncertainty band")
	robustBand := flag.Float64("robust-band", 0,
		fmt.Sprintf("uncertainty band B for -robust: true selectivities may exceed estimates by up to B (0 = default %g)", mpq.DefaultRobustBand))
	orders := flag.Bool("orders", false, "track interesting orders")
	dot := flag.Bool("dot", false, "emit the best plan as a Graphviz digraph instead of a tree")
	fingerprint := flag.Bool("fingerprint", false, "print the best plan's fingerprint (identical across engines for the same job)")
	ef := cliutil.Register(flag.CommandLine, "local")
	nf := cliutil.RegisterNoise(flag.CommandLine)
	flag.Parse()

	// Ctrl-C cancels the context; the engines abort the dynamic program
	// between cardinality levels and shut their workers down. A second
	// Ctrl-C force-kills (SignalContext releases the registration after
	// the first).
	ctx, stop := cliutil.SignalContext(context.Background())
	defer stop()

	jobSpace, err := partition.ParseSpace(*space)
	if err != nil {
		return err
	}
	jspec := mpq.JobSpec{
		Space:             jobSpace,
		Workers:           *workers,
		InterestingOrders: *orders,
	}
	if *multi && *robust {
		return fmt.Errorf("-mo and -robust are mutually exclusive")
	}
	if *multi {
		jspec.Objective = mpq.MultiObjective
		jspec.Alpha = *alpha
	}
	if *robust {
		jspec.Objective = mpq.RobustObjective
		jspec.RobustBand = *robustBand
	}

	eng, err := ef.Build()
	if err != nil {
		return err
	}

	if files := flag.Args(); len(files) > 0 {
		if *queryFile != "" || *tables != 0 || *schemaName != "" || *dot {
			return fmt.Errorf("positional query files are exclusive with -query, -tables, -schema and -dot")
		}
		return runBatch(ctx, eng, files, jspec, nf, *fingerprint)
	}

	q, err := loadQuery(*queryFile, *tables, *shape, *seed, *schemaName, *sf)
	if err != nil {
		return err
	}
	if q, err = nf.Apply(q); err != nil {
		return err
	}

	// The serial engine always runs the unpartitioned DP; report the
	// worker count it actually uses rather than the -workers request.
	effectiveWorkers := *workers
	if strings.EqualFold(ef.Engine, "serial") {
		effectiveWorkers = 1
	}
	fmt.Printf("query: %d tables, %d predicates; %v space; %d workers (max %d); engine %s\n",
		q.N(), len(q.Preds), jobSpace, effectiveWorkers, mpq.MaxWorkers(jobSpace, q.N()), ef.Engine)

	ans, err := eng.Optimize(ctx, q, jspec)
	if err != nil {
		return interrupted(err)
	}
	render := ans.Best.Format()
	if *dot {
		render = ans.Best.DOT("plan")
	}
	printAnswer(render, ans, cliutil.Describe(ans), *robust)
	if *fingerprint {
		fmt.Printf("fingerprint: %s\n", mpq.PlanFingerprint(ans.Best))
	}
	return nil
}

func loadQuery(file string, tables int, shape string, seed int64, schemaName string, sf float64) (*mpq.Query, error) {
	sources := 0
	for _, set := range []bool{file != "", tables != 0, schemaName != ""} {
		if set {
			sources++
		}
	}
	switch {
	case sources == 0:
		return nil, fmt.Errorf("provide -query FILE, -tables N or -schema NAME")
	case sources > 1:
		return nil, fmt.Errorf("-query, -tables and -schema are mutually exclusive")
	case schemaName != "":
		sch, err := catalog.BuiltinSchema(schemaName)
		if err != nil {
			return nil, err
		}
		_, q, err := mpq.SchemaWorkload(sch, sf)
		return q, err
	case file == "-":
		return spec.Read(os.Stdin)
	case file != "":
		return readQueryFile(file)
	default:
		sh, err := workload.ParseShape(shape)
		if err != nil {
			return nil, err
		}
		_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(tables, sh), seed)
		return q, err
	}
}

func readQueryFile(file string) (*mpq.Query, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	q, err := spec.Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return q, nil
}

// runBatch optimizes every file's query in one Engine.OptimizeBatch call.
func runBatch(ctx context.Context, eng mpq.Engine, files []string, jspec mpq.JobSpec, nf *cliutil.NoiseFlags, fingerprint bool) error {
	jobs := make([]mpq.Job, len(files))
	for i, file := range files {
		q, err := readQueryFile(file)
		if err != nil {
			return err
		}
		if q, err = nf.Apply(q); err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		jobs[i] = mpq.Job{Query: q, Spec: jspec}
	}
	start := time.Now()
	answers, err := eng.OptimizeBatch(ctx, jobs)
	if err != nil {
		return interrupted(err)
	}
	for i, ans := range answers {
		line := fmt.Sprintf("%s: best %s (cost %.4g), %d work units", files[i], ans.Best, ans.Best.Cost, ans.Stats.WorkUnits())
		if fingerprint {
			line += ", fingerprint " + mpq.PlanFingerprint(ans.Best)
		}
		fmt.Println(line)
	}
	summary := fmt.Sprintf("batch of %d queries in %v", len(jobs), time.Since(start).Round(time.Millisecond))
	if answers[0].Net != nil { // the TCP engine: the batch shares its connections
		dials := 0
		for _, ans := range answers {
			dials += ans.Net.Dials
		}
		summary += fmt.Sprintf(" — %d connection(s) dialed for the whole batch", dials)
	}
	fmt.Println(summary)
	return nil
}

// interrupted rewords the error of a run the user's Ctrl-C canceled.
func interrupted(err error) error {
	if errors.Is(err, context.Canceled) {
		return fmt.Errorf("interrupted — optimization canceled cleanly: %w", err)
	}
	return err
}

func printAnswer(planTree string, ans *mpq.Answer, engineLine string, robust bool) {
	fmt.Printf("work: %d units; %s\n\n", ans.Stats.WorkUnits(), engineLine)
	if ans.Frontier != nil && robust {
		// Under a robust job the second metric is the plan's worst-case
		// cost at the high endpoint of the uncertainty band.
		fmt.Printf("robust frontier (%d plans, nominal vs worst-case cost):\n", len(ans.Frontier))
		for i, p := range ans.Frontier {
			fmt.Printf("  #%d (cost=%.4g, worst=%.4g)  %s\n", i+1, p.Cost, p.Buffer, p)
		}
		fmt.Println()
	} else if ans.Frontier != nil {
		fmt.Printf("Pareto frontier (%d plans):\n", len(ans.Frontier))
		for i, p := range ans.Frontier {
			fmt.Printf("  #%d (t=%.4g, b=%.4g)  %s\n", i+1, p.Cost, p.Buffer, p)
		}
		fmt.Println()
	}
	if robust {
		fmt.Printf("best plan (min worst-case cost %.4g, nominal %.4g):\n", ans.Best.Buffer, ans.Best.Cost)
	} else {
		fmt.Println("best plan (time metric):")
	}
	fmt.Print(planTree)
}
