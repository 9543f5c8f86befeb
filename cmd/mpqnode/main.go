// Command mpqnode runs the distributed MPQ runtime over TCP: start
// worker processes on your nodes, then point a master at them.
//
// Worker:
//
//	mpqnode worker -listen :9991
//
// Master (optimizes one query across the workers):
//
//	mpqnode master -workers host1:9991,host2:9991 -tables 16 -space linear -partitions 16
//	mpqnode master -workers host1:9991 -query q.json
//
// Master batch mode (positional query files): the queries are
// pipelined through one pool of keep-alive connections — the master
// dials each worker once for the whole batch:
//
//	mpqnode master -workers host1:9991,host2:9991 q1.json q2.json q3.json
//
// Ctrl-C cancels a running optimization cleanly: in-flight jobs are
// abandoned, connections closed, and the master exits with an error.
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
	"mpq/internal/cliutil"
	"mpq/internal/sched"
	"mpq/internal/spec"
	"mpq/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mpqnode:", err)
		os.Exit(1)
	}
}

func run() error {
	if len(os.Args) < 2 {
		return fmt.Errorf("usage: mpqnode worker|master [flags]")
	}
	switch os.Args[1] {
	case "worker":
		return runWorker(os.Args[2:])
	case "master":
		return runMaster(os.Args[2:])
	default:
		return fmt.Errorf("unknown subcommand %q (want worker or master)", os.Args[1])
	}
}

func runWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	listen := fs.String("listen", ":9991", "listen address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := mpq.ListenWorker(*listen)
	if err != nil {
		return err
	}
	fmt.Printf("mpq worker listening on %s\n", w.Addr())
	ctx, stop := cliutil.SignalContext(context.Background())
	defer stop()
	<-ctx.Done()
	fmt.Println("shutting down")
	return w.Close()
}

func runMaster(args []string) error {
	fs := flag.NewFlagSet("master", flag.ExitOnError)
	workers := fs.String("workers", "", "comma-separated worker addresses")
	queryFile := fs.String("query", "", "JSON query spec (- for stdin)")
	tables := fs.Int("tables", 0, "generate a random query with this many tables")
	shape := fs.String("shape", "Star",
		"join graph shape for -tables ("+strings.Join(workload.ShapeNames(), ", ")+")")
	seed := fs.Int64("seed", 0, "workload seed for -tables")
	space := fs.String("space", "linear", "plan space: linear or bushy")
	partitions := fs.Int("partitions", 0, "plan-space partitions (default: number of workers rounded down to a power of two)")
	multi := fs.Bool("mo", false, "multi-objective optimization")
	alpha := fs.Float64("alpha", 10, "approximation factor for -mo")
	robust := fs.Bool("robust", false, "robust optimization: minimize worst-case cost over a selectivity uncertainty band")
	robustBand := fs.Float64("robust-band", 0,
		fmt.Sprintf("uncertainty band B for -robust (0 = default %g)", mpq.DefaultRobustBand))
	nf := cliutil.RegisterNoise(fs)
	timeout := fs.Duration("timeout", 2*time.Minute, "per-job deadline (dial + send + compute + receive)")
	retries := fs.Int("retries", sched.DefaultMaxAttempts, "attempts per partition before giving up")
	workerFailures := fs.Int("max-worker-failures", sched.DefaultMaxWorkerFailures,
		"consecutive failures before a worker is excluded for the query")
	speculate := fs.Bool("speculate", false,
		"race straggling partitions against speculative clones on idle workers")
	specMult := fs.Float64("spec-multiplier", 0,
		"straggler threshold as a multiple of the median service time (0 = default)")
	specFloor := fs.Duration("spec-floor", 0,
		"lower bound on the straggler threshold (0 = default)")
	readmitAfter := fs.Duration("readmit-after", 0,
		"probe excluded workers with a pending partition after this backoff (0 = never)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	addrs := strings.Split(*workers, ",")
	if *workers == "" || len(addrs) == 0 {
		return fmt.Errorf("provide -workers host:port[,host:port...]")
	}

	ctx, stop := cliutil.SignalContext(context.Background())
	defer stop()

	jobSpace := mpq.Linear
	if strings.EqualFold(*space, "bushy") {
		jobSpace = mpq.Bushy
	} else if !strings.EqualFold(*space, "linear") {
		return fmt.Errorf("unknown plan space %q", *space)
	}

	m := *partitions
	if m == 0 {
		m = 1
		for m*2 <= len(addrs) {
			m *= 2
		}
	}
	jspec := mpq.JobSpec{Space: jobSpace, Workers: m}
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

	eng, err := mpq.NewTCPEngine(addrs, mpq.WithMasterOptions(mpq.MasterOptions{
		Timeout:               *timeout,
		MaxAttempts:           *retries,
		MaxWorkerFailures:     *workerFailures,
		Speculate:             *speculate,
		SpeculationMultiplier: *specMult,
		SpeculationFloor:      *specFloor,
		ReadmitAfter:          *readmitAfter,
	}))
	if err != nil {
		return err
	}

	// Batch mode: every positional argument is a query file; the batch
	// shares one pool of keep-alive connections.
	if files := fs.Args(); len(files) > 0 {
		if *queryFile != "" || *tables != 0 {
			return fmt.Errorf("positional query files are exclusive with -query/-tables")
		}
		return runBatch(ctx, eng, files, jspec, len(addrs), nf)
	}

	q, err := loadQuery(*queryFile, *tables, *shape, *seed)
	if err != nil {
		return err
	}
	if q, err = nf.Apply(q); err != nil {
		return err
	}
	start := time.Now()
	ans, err := eng.Optimize(ctx, q, jspec)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return fmt.Errorf("interrupted — optimization canceled cleanly: %w", err)
		}
		return err
	}
	fmt.Printf("optimized %d-table query over %d workers (%d partitions) in %v\n",
		q.N(), len(addrs), m, time.Since(start).Round(time.Millisecond))
	fmt.Println(cliutil.Describe(ans))
	if ans.Frontier != nil && *robust {
		fmt.Printf("robust frontier: %d plans; best worst-case cost %.4g (nominal %.4g)\n",
			len(ans.Frontier), ans.Best.Buffer, ans.Best.Cost)
	} else if ans.Frontier != nil {
		fmt.Printf("Pareto frontier: %d plans\n", len(ans.Frontier))
	}
	fmt.Println("best plan:")
	fmt.Print(ans.Best.Format())
	return nil
}

func runBatch(ctx context.Context, eng *mpq.TCPEngine, files []string, jspec mpq.JobSpec, numWorkers int, nf *cliutil.NoiseFlags) error {
	jobs := make([]mpq.Job, 0, len(files))
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		q, err := spec.Read(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		if q, err = nf.Apply(q); err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		jobs = append(jobs, mpq.Job{Query: q, Spec: jspec})
	}
	start := time.Now()
	answers, err := eng.OptimizeBatch(ctx, jobs)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return fmt.Errorf("interrupted — batch canceled cleanly: %w", err)
		}
		return err
	}
	var dials int
	for i, ans := range answers {
		fmt.Printf("%s: best %s (cost %.4g), %d bytes, %d messages\n",
			files[i], ans.Best, ans.Best.Cost, ans.Net.BytesSent+ans.Net.BytesReceived, ans.Net.Messages)
		dials += ans.Net.Dials
	}
	fmt.Printf("batch of %d queries over %d workers in %v — %d connection(s) dialed for the whole batch\n",
		len(jobs), numWorkers, time.Since(start).Round(time.Millisecond), dials)
	return nil
}

func loadQuery(file string, tables int, shape string, seed int64) (*mpq.Query, error) {
	switch {
	case file == "" && tables == 0:
		return nil, fmt.Errorf("provide -query FILE, -tables N or positional query files")
	case file != "" && tables != 0:
		return nil, fmt.Errorf("-query and -tables are mutually exclusive")
	case file == "-":
		return spec.Read(os.Stdin)
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return spec.Read(f)
	default:
		sh, err := workload.ParseShape(shape)
		if err != nil {
			return nil, err
		}
		_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(tables, sh), seed)
		return q, err
	}
}
