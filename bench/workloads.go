package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"mpq"
	"mpq/internal/brute"
	"mpq/internal/server"
	"mpq/internal/workload"
)

// job is one distinct (query, spec) pair of a workload.
type job struct {
	name    string // e.g. "Star/Linear/16"
	class   string // "linear" or "bushy"
	q       *mpq.Query
	spec    mpq.JobSpec
	refCost float64 // the reference engine's cost, computed at set-up
	fp      string  // fingerprint of the measured engine's warm-up answer
}

// workloadDef is one named workload: how its jobs are generated from
// the seed and which engine configuration serves them.
type workloadDef struct {
	name string
	why  string
	// jobs builds the distinct jobs (and, for a stream, the arrival
	// order; nil means round-robin) from the seed alone.
	jobs func(seed int64, sz sizes) ([]job, []int, error)
	// start builds the measured engine, one handle per closed-loop
	// caller, and registers what must be closed.
	start func(ctx context.Context, in *instance) error
	// reference builds the engine whose cost each answer must equal.
	reference func() mpq.Engine
}

var shapes = []workload.Shape{workload.Star, workload.Chain, workload.Cycle}

// largeJobs is the job list serial-large and mpq8-large share:
// {Star, Chain, Cycle} × {Linear, Bushy}, run round-robin.
func largeJobs(workers int) func(int64, sizes) ([]job, []int, error) {
	return func(seed int64, sz sizes) ([]job, []int, error) {
		var jobs []job
		for _, sh := range shapes {
			for _, sp := range []mpq.Space{mpq.Linear, mpq.Bushy} {
				n, class := sz.linearN, "linear"
				if sp == mpq.Bushy {
					n, class = sz.bushyN, "bushy"
				}
				_, q, err := workload.Generate(workload.NewParams(n, sh), seed)
				if err != nil {
					return nil, nil, err
				}
				jobs = append(jobs, job{
					name: fmt.Sprintf("%v/%v/%d", sh, sp, n), class: class, q: q,
					spec: mpq.JobSpec{Space: sp, Workers: workers},
				})
			}
		}
		return jobs, nil, nil
	}
}

func moJobs(seed int64, sz sizes) ([]job, []int, error) {
	var jobs []job
	for _, sh := range shapes {
		_, q, err := workload.Generate(workload.NewParams(sz.moN, sh), seed)
		if err != nil {
			return nil, nil, err
		}
		jobs = append(jobs, job{
			name: fmt.Sprintf("%v/Linear/%d/mo", sh, sz.moN), class: "linear", q: q,
			spec: mpq.JobSpec{Space: mpq.Linear, Workers: 4, Objective: mpq.MultiObjective, Alpha: 2},
		})
	}
	return jobs, nil, nil
}

// zipfArrivals is the length of the generated arrival order; callers
// wrap around it, so it only has to be long against the cache.
const zipfArrivals = 1 << 18

func zipfJobs(seed int64, sz sizes) ([]job, []int, error) {
	st, err := workload.GenerateStream(workload.StreamParams{
		Query:    workload.NewParams(sz.zipfN, workload.Star),
		Distinct: sz.zipfDistinct,
		Length:   zipfArrivals,
		Skew:     1.1,
	}, seed)
	if err != nil {
		return nil, nil, err
	}
	jobs := make([]job, len(st.Queries))
	for i, q := range st.Queries {
		jobs[i] = job{
			name: fmt.Sprintf("Star/Linear/%d/rank%d", sz.zipfN, i), class: "linear", q: q,
			spec: mpq.JobSpec{Space: mpq.Linear, Workers: 2},
		}
	}
	return jobs, st.Order, nil
}

func serialRef() mpq.Engine { return mpq.NewSerialEngine() }

// nproc is the number of client goroutines and connections a workload
// may use: never more than the processors the process runs on.
func nproc() int { return runtime.GOMAXPROCS(0) }

var workloads = []workloadDef{
	{
		name:      wlSerial,
		why:       "serial DP on 16-table linear and 12-table bushy joins: the dp inner loop does all the work; the baseline every speedup divides by",
		jobs:      largeJobs(1),
		reference: serialRef,
		start: func(_ context.Context, in *instance) error {
			in.callers = []mpq.Engine{mpq.NewSerialEngine()}
			return nil
		},
	},
	{
		name:      wlMPQ8,
		why:       "the same jobs as 8 constrained partitions on goroutines: partitioning, fan-out and final prune join dp; divided by serial-large it is the real-core speedup",
		jobs:      largeJobs(8),
		reference: serialRef,
		start: func(_ context.Context, in *instance) error {
			in.callers = []mpq.Engine{mpq.NewInProcessEngine()}
			return nil
		},
	},
	{
		name: wlTCP,
		why:  "12-table multi-objective jobs over loopback TCP workers: wire encode/decode, netrun dispatch and Pareto frontiers carry a visible share",
		jobs: moJobs,
		// α-approximate pruning depends on the partition count, so the
		// reference is the in-process engine on the identical spec.
		reference: func() mpq.Engine { return mpq.NewInProcessEngine() },
		start: func(_ context.Context, in *instance) error {
			for i := 0; i < min(nproc(), 4); i++ {
				w, err := mpq.ListenWorker("127.0.0.1:0")
				if err != nil {
					return err
				}
				in.closers = append(in.closers, w.Close)
				in.workerAddrs = append(in.workerAddrs, w.Addr())
			}
			eng, err := mpq.NewTCPEngine(in.workerAddrs)
			if err != nil {
				return err
			}
			in.callers = []mpq.Engine{eng}
			return nil
		},
	},
	{
		name:      wlServe,
		why:       "a Zipf stream of 8-table queries through the daemon with a cache a quarter of the working set: server, cache and wire dominate, the DP is 0.25 ms",
		jobs:      zipfJobs,
		reference: serialRef,
		start: func(ctx context.Context, in *instance) error {
			in.cached = mpq.WithCache(mpq.NewInProcessEngine(), mpq.CacheConfig{MaxBytes: 64 << 10})
			srv, err := server.New(server.Config{
				Engine:      in.cached,
				WireAddr:    "127.0.0.1:0",
				HTTPAddr:    "127.0.0.1:0", // idle except for the trace walk's one HTTP probe
				Dispatchers: nproc(),
			})
			if err != nil {
				return err
			}
			if err := srv.Start(); err != nil {
				return err
			}
			in.srv = srv
			in.closers = append(in.closers, func() error {
				sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
				defer cancel()
				return srv.Shutdown(sctx)
			})
			for i := 0; i < nproc(); i++ {
				c, err := server.Dial(srv.WireAddr(), 5*time.Second)
				if err != nil {
					return err
				}
				in.closers = append(in.closers, c.Close)
				in.callers = append(in.callers, c)
			}
			return nil
		},
	},
}

func workloadByName(name string) (*workloadDef, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// instance is one set-up workload: engines listening, references
// computed, caches warm.
type instance struct {
	def      *workloadDef
	cal      *calibrator
	seed     int64
	jobs     []job
	arrivals []int // arrival order over jobs; nil = round-robin
	callers  []mpq.Engine
	pos      []int // per caller: arrivals consumed so far, across slices

	cached      *mpq.CachedEngine // serve-zipf8: for CacheTotals
	srv         *server.Server    // serve-zipf8: for the HTTP probe
	workerAddrs []string          // tcp-mo12: for the walk's own dial
	closers     []func() error    // in start order; closed in reverse

	setupS           float64 // reference seconds
	setupWallS       float64 // the same set-up in wall-clock seconds
	goroutinesBefore int
	checks           // correctness checks made outside the timed loop
}

// checks counts correctness checks and keeps the first failures: a
// violation is counted into failed_share, never dropped.
type checks struct {
	attempted, failed int
	failures          []string
}

// add folds in the checks of an instance that was set up and closed.
func (c *checks) add(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.failures = append(c.failures, o.failures...)
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.failures) < 8 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// sameCost compares costs up to float association: engines that sum
// the same operator costs along different partitions differ in the
// last bits.
func sameCost(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// modelOf is the cost model the engines run spec under: the spec's own,
// or the default when it names none.
func modelOf(spec mpq.JobSpec) mpq.CostModel {
	if m := spec.EffectiveModel(); m != (mpq.CostModel{}) {
		return m
	}
	return mpq.DefaultCostModel()
}

// next returns the job the caller's next operation runs. Caller c of k
// takes every k-th arrival.
func (in *instance) next(c int) int {
	i := in.pos[c]*len(in.callers) + c
	in.pos[c]++
	if in.arrivals == nil {
		return i % len(in.jobs)
	}
	return in.arrivals[i%len(in.arrivals)]
}

// setUp generates the workload from the seed, starts its engine,
// checks the engine configuration against the brute-force oracle,
// computes references and warms up. Everything here is charged to
// setup_s.
func setUp(ctx context.Context, cal *calibrator, def *workloadDef, seed int64, sz sizes, gold golden) (*instance, error) {
	in := &instance{def: def, cal: cal, seed: seed, goroutinesBefore: runtime.NumGoroutine()}
	before := cal.slowdown(fresh)
	start := time.Now()
	var err error
	if in.jobs, in.arrivals, err = def.jobs(seed, sz); err != nil {
		return nil, err
	}
	if err := def.start(ctx, in); err != nil {
		return nil, errors.Join(err, in.close())
	}
	in.pos = make([]int, len(in.callers))
	if err := in.oracle(ctx, sz); err != nil {
		return nil, errors.Join(err, in.close())
	}
	ref := def.reference()
	for i := range in.jobs {
		j := &in.jobs[i]
		ans, err := ref.Optimize(ctx, j.q, j.spec)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("%s: reference for %s: %w", def.name, j.name, err), in.close())
		}
		j.refCost = ans.Best.Cost
	}
	if err := in.warmUp(ctx, gold); err != nil {
		return nil, errors.Join(err, in.close())
	}
	in.setupWallS = time.Since(start).Seconds()
	in.setupS = in.setupWallS / ((before + cal.slowdown(fresh)) / 2)
	return in, nil
}

// oracle runs the workload's engine configuration on small queries and
// requires internal/brute's exhaustive minimum: the reference that is
// independent of every optimizer in the repository.
func (in *instance) oracle(ctx context.Context, sz sizes) error {
	eng := in.callers[0]
	for _, c := range []struct {
		space mpq.Space
		n     int
	}{{mpq.Linear, 6}, {mpq.Bushy, 5}} {
		for s := 0; s < sz.oracleSeeds; s++ {
			_, q, err := workload.Generate(workload.NewParams(c.n, shapes[s%len(shapes)]), in.seed+int64(s))
			if err != nil {
				return err
			}
			spec := in.jobs[0].spec
			spec.Space = c.space
			spec.Workers = min(spec.Workers, mpq.MaxWorkers(c.space, c.n))
			if spec.Objective == mpq.MultiObjective {
				spec.Alpha = 1 // the exact frontier contains the cheapest plan
			}
			want := brute.BestCost(q, c.space, brute.Options{Model: modelOf(spec)})
			ans, err := eng.Optimize(ctx, q, spec)
			if err != nil {
				in.check(false, "oracle %v n=%d seed+%d: %v", c.space, c.n, s, err)
				continue
			}
			in.check(sameCost(ans.Best.Cost, want), "oracle %v n=%d seed+%d: cost %v, brute force %v", c.space, c.n, s, ans.Best.Cost, want)
		}
	}
	return nil
}

// warmUp runs every distinct job once and checks each answer:
// reference cost, a from-scratch Validate, and for the reference seed
// the pinned cost and fingerprint. A stream then replays its first
// 4×Distinct arrivals, so the cache reaches its steady state.
func (in *instance) warmUp(ctx context.Context, gold golden) error {
	for ji := range in.jobs {
		j := &in.jobs[ji]
		ans, err := in.callers[ji%len(in.callers)].Optimize(ctx, j.q, j.spec)
		if err != nil {
			return fmt.Errorf("%s: warm-up %s: %w", in.def.name, j.name, err)
		}
		j.fp = mpq.PlanFingerprint(ans.Best)
		in.verify(j, ans)
		if pin, ok := gold[in.def.name][j.name]; ok {
			in.check(sameCost(j.refCost, pin.Cost), "%s: reference cost %v, golden %v", j.name, j.refCost, pin.Cost)
			in.check(j.fp == pin.Fingerprint, "%s: fingerprint %s, golden %s", j.name, j.fp, pin.Fingerprint)
		}
	}
	if in.arrivals == nil {
		return nil
	}
	for i := 0; i < 4*len(in.jobs); i++ {
		c := i % len(in.callers)
		j := &in.jobs[in.next(c)]
		if _, err := in.callers[c].Optimize(ctx, j.q, j.spec); err != nil {
			return fmt.Errorf("%s: warm-up replay %s: %w", in.def.name, j.name, err)
		}
	}
	return nil
}

// verify checks one answer against the job's reference cost and
// recomputes its plan tree from scratch.
func (in *instance) verify(j *job, ans *mpq.Answer) {
	in.check(sameCost(ans.Best.Cost, j.refCost), "%s: cost %v, reference %v", j.name, ans.Best.Cost, j.refCost)
	err := ans.Best.Validate(j.q, modelOf(j.spec))
	in.check(err == nil, "%s: Validate: %v", j.name, err)
}

// close stops clients, servers and workers, newest first.
func (in *instance) close() error {
	var errs []error
	for i := len(in.closers) - 1; i >= 0; i-- {
		errs = append(errs, in.closers[i]())
	}
	in.closers = nil
	return errors.Join(errs...)
}

// leakedGoroutines is how many goroutines outlive close, allowing the
// runtime a moment to retire the ones that are already returning.
func (in *instance) leakedGoroutines() int {
	for i := 0; i < 50 && runtime.NumGoroutine() > in.goroutinesBefore; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine() - in.goroutinesBefore
}
