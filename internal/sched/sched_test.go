package sched

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

const ms = time.Millisecond

// step is one event fed to the core at a virtual instant, with the
// exact actions (or error) it must answer.
type step struct {
	ev      Event
	want    Actions
	wantErr string
}

func tick(now time.Duration, want Actions) step { return step{ev: Tick(now), want: want} }

func report(now time.Duration, worker int, out Outcome, elapsed time.Duration, want Actions) step {
	return step{ev: Event{Now: now, Worker: worker, Outcome: out, Elapsed: elapsed}, want: want}
}

func failing(now time.Duration, worker int, out Outcome, elapsed time.Duration, wantErr string) step {
	return step{ev: Event{Now: now, Worker: worker, Outcome: out, Elapsed: elapsed}, wantErr: wantErr}
}

func send(worker, part int) Dispatch { return Dispatch{Worker: worker, Unit: Unit{Part: part}} }
func probe(worker, part int) Dispatch {
	return Dispatch{Worker: worker, Unit: Unit{Part: part}, Probe: true}
}

// The policy, one scripted scenario per rule. No sockets, no sleeps:
// time is whatever the script says it is.
func TestCoreScenarios(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		cfg     Config
		parts   []int
		steps   []step
		want    Counters // job 0, after the last step
	}{
		{
			// Speculate=false, ReadmitAfter=0: the static schedule. Each
			// worker runs exactly its seeded queue, in order, across both
			// jobs of the batch, and the core never asks to be woken.
			name:    "static schedule dispatches the seeded queues in order",
			workers: 2,
			parts:   []int{4, 2},
			steps: []step{
				tick(0, Actions{Dispatch: []Dispatch{send(0, 0), send(1, 1)}}),
				report(3*ms, 1, OK, 3*ms, Actions{Accepted: true, Dispatch: []Dispatch{send(1, 3)}}),
				report(4*ms, 0, OK, 4*ms, Actions{Accepted: true, Dispatch: []Dispatch{send(0, 2)}}),
				report(5*ms, 1, OK, 2*ms, Actions{Accepted: true,
					Dispatch: []Dispatch{{Worker: 1, Unit: Unit{Job: 1, Part: 1}}}}),
				report(9*ms, 0, OK, 5*ms, Actions{Accepted: true, JobDone: true,
					Dispatch: []Dispatch{{Worker: 0, Unit: Unit{Job: 1, Part: 0}}}}),
				// An idle worker does not steal and does not clone.
				report(10*ms, 1, OK, 5*ms, Actions{Accepted: true}),
				report(500*ms, 0, OK, 491*ms, Actions{Accepted: true, JobDone: true, Done: true}),
			},
		},
		{
			name:    "weighted static schedule hands out contiguous shares",
			workers: 2,
			cfg:     Config{Weights: []float64{3, 1}},
			parts:   []int{4},
			steps: []step{
				tick(0, Actions{Dispatch: []Dispatch{send(0, 0), send(1, 3)}}),
				report(1*ms, 1, OK, 1*ms, Actions{Accepted: true}),
				report(2*ms, 0, OK, 2*ms, Actions{Accepted: true, Dispatch: []Dispatch{send(0, 1)}}),
				report(3*ms, 0, OK, 1*ms, Actions{Accepted: true, Dispatch: []Dispatch{send(0, 2)}}),
				report(4*ms, 0, OK, 1*ms, Actions{Accepted: true, JobDone: true, Done: true}),
			},
		},
		{
			// The clone goes to an idle worker only once the original is
			// past the threshold, and only while exactly one copy is in
			// flight: the second idle worker gets nothing. The first answer
			// wins; the cancel set is the other runner of that partition —
			// not the worker busy with a different one.
			name:    "speculation: one clone, first answer wins, losers canceled",
			workers: 4,
			cfg:     Config{Speculate: true, SpeculationFloor: 50 * ms},
			parts:   []int{3},
			steps: []step{
				tick(0, Actions{Dispatch: []Dispatch{send(0, 0), send(1, 1), send(2, 2)}}),
				// No partition has completed: no baseline, no threshold, no wake.
				tick(40*ms, Actions{}),
				report(41*ms, 1, OK, 10*ms, Actions{Accepted: true, Wake: 50 * ms}),
				tick(49*ms, Actions{Wake: 50 * ms}),
				// Both stragglers cross at once; one clone each, onto the two
				// idle workers, the longest-running (lowest index on a tie) first.
				tick(50*ms, Actions{Dispatch: []Dispatch{send(1, 0), send(3, 2)}}),
				report(60*ms, 1, OK, 10*ms, Actions{Accepted: true, Cancel: []int{0}}),
				// The loser's cancel acknowledgment is stale: nothing to redo.
				report(61*ms, 0, Canceled, 61*ms, Actions{}),
				// The other race is lost by the clone, which finishes anyway.
				report(70*ms, 2, OK, 70*ms, Actions{Accepted: true, JobDone: true, Cancel: []int{3}, Done: true}),
			},
			want: Counters{Speculations: 2, SpeculationWasted: 1},
		},
		{
			// A worker that cancels a job nobody canceled is recoverable:
			// the unit is re-queued, avoids the worker that dropped it, and
			// counts against the attempt budget.
			name:    "spurious cancel re-queues under the budget",
			workers: 2,
			cfg:     Config{MaxAttempts: 2},
			parts:   []int{2},
			steps: []step{
				tick(0, Actions{Dispatch: []Dispatch{send(0, 0), send(1, 1)}}),
				report(5*ms, 0, Canceled, 5*ms, Actions{}), // w0 idle, but it failed p0
				report(9*ms, 1, OK, 9*ms, Actions{Accepted: true, Dispatch: []Dispatch{send(1, 0)}}),
				failing(12*ms, 1, Canceled, 3*ms, "partition 0 failed 2 times, giving up"),
			},
			want: Counters{Redispatched: 1, SpeculationWasted: 2},
		},
		{
			name:    "transport failures exhaust the attempt budget",
			workers: 1,
			cfg:     Config{MaxWorkerFailures: 10},
			parts:   []int{1},
			steps: []step{
				tick(0, Actions{Dispatch: []Dispatch{send(0, 0)}}),
				// The only survivor failed it: it may retry it all the same.
				report(1*ms, 0, Failed, 1*ms, Actions{Dispatch: []Dispatch{send(0, 0)}}),
				report(2*ms, 0, Failed, 1*ms, Actions{Dispatch: []Dispatch{send(0, 0)}}),
				failing(3*ms, 0, Failed, 1*ms, "partition 0 failed 3 times, giving up"),
			},
			want: Counters{Redispatched: 2},
		},
		{
			name:    "every worker excluded",
			workers: 2,
			cfg:     Config{MaxWorkerFailures: 1},
			parts:   []int{2},
			steps: []step{
				tick(0, Actions{Dispatch: []Dispatch{send(0, 0), send(1, 1)}}),
				report(1*ms, 0, Failed, 1*ms, Actions{}),
				failing(2*ms, 1, Failed, 2*ms, "all 2 workers failed with 2 of 2 partitions unanswered"),
			},
			want: Counters{Redispatched: 2},
		},
		{
			name:    "a deterministic failure aborts unless the partition is answered",
			workers: 1,
			parts:   []int{1},
			steps: []step{
				tick(0, Actions{Dispatch: []Dispatch{send(0, 0)}}),
				failing(1*ms, 0, Fatal, 1*ms, ErrFatal.Error()),
			},
		},
		{
			// Exclusion hands the excluded worker's untouched share — then
			// the unit it just failed — to the survivors, and the excluded
			// worker is never dispatched to again.
			name:    "exclusion hands the untouched share to survivors",
			workers: 2,
			cfg:     Config{MaxWorkerFailures: 1},
			parts:   []int{4},
			steps: []step{
				tick(0, Actions{Dispatch: []Dispatch{send(0, 0), send(1, 1)}}),
				report(1*ms, 0, Failed, 1*ms, Actions{}),
				report(2*ms, 1, OK, 2*ms, Actions{Accepted: true, Dispatch: []Dispatch{send(1, 3)}}),
				report(3*ms, 1, OK, 1*ms, Actions{Accepted: true, Dispatch: []Dispatch{send(1, 2)}}),
				report(4*ms, 1, OK, 1*ms, Actions{Accepted: true, Dispatch: []Dispatch{send(1, 0)}}),
				report(5*ms, 1, OK, 1*ms, Actions{Accepted: true, JobDone: true, Done: true}),
			},
			want: Counters{Redispatched: 1},
		},
		{
			// An excluded worker is probed with the head of the longest
			// queue once its backoff expires; a failed probe doubles the
			// backoff, a correct one readmits the worker — and its answer,
			// being the partition's first, is kept.
			name:    "probes: backoff doubles on failure, success readmits",
			workers: 2,
			cfg:     Config{MaxWorkerFailures: 1, ReadmitAfter: 100 * ms},
			parts:   []int{4},
			steps: []step{
				tick(0, Actions{Dispatch: []Dispatch{send(0, 0), send(1, 1)}}),
				report(10*ms, 0, Failed, 10*ms, Actions{Wake: 110 * ms}),
				tick(110*ms, Actions{Dispatch: []Dispatch{probe(0, 3)}}),
				report(120*ms, 0, Failed, 10*ms, Actions{Wake: 320 * ms}),
				tick(320*ms, Actions{Dispatch: []Dispatch{probe(0, 3)}}),
				report(330*ms, 0, OK, 10*ms, Actions{Accepted: true, Dispatch: []Dispatch{send(0, 2)}}),
				// w1 skips p3 (answered by the probe) and picks up the retry.
				report(340*ms, 1, OK, 340*ms, Actions{Accepted: true, Dispatch: []Dispatch{send(1, 0)}}),
				report(350*ms, 0, OK, 20*ms, Actions{Accepted: true}),
				report(360*ms, 1, OK, 20*ms, Actions{Accepted: true, JobDone: true, Done: true}),
			},
			want: Counters{Redispatched: 1, Probes: 2, Readmitted: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.workers, tc.cfg, tc.parts)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range tc.steps {
				got, err := c.Step(s.ev)
				if s.wantErr != "" {
					if err == nil || err.Error() != s.wantErr {
						t.Fatalf("step %d: error %v, want %q", i, err, s.wantErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if !reflect.DeepEqual(got, s.want) {
					t.Fatalf("step %d:\n got %+v\nwant %+v", i, got, s.want)
				}
			}
			if got := c.Counters(0); got != tc.want {
				t.Fatalf("counters %+v, want %+v", got, tc.want)
			}
		})
	}
}

// The straggler threshold is max(floor, multiplier × median) of the
// job's completed service times. It is observable as the wake instant
// of a straggler dispatched at 0, once the last other partition is in.
func TestStragglerThreshold(t *testing.T) {
	cases := []struct {
		name  string
		mult  float64
		floor time.Duration
		svc   []time.Duration
		want  time.Duration
	}{
		{"defaults: floor dominates a fast median", 0, 0, []time.Duration{10 * ms}, DefaultSpeculationFloor},
		{"defaults: twice the median", 0, 0, []time.Duration{300 * ms, 200 * ms, 400 * ms}, 600 * ms},
		{"upper median of an even count", 3, ms, []time.Duration{40 * ms, 10 * ms, 30 * ms, 20 * ms}, 90 * ms},
		{"floor", 1, 70 * ms, []time.Duration{60 * ms, 10 * ms}, 70 * ms},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Speculate: true, SpeculationMultiplier: tc.mult, SpeculationFloor: tc.floor}
			c, err := New(2, cfg, []int{len(tc.svc) + 1})
			if err != nil {
				t.Fatal(err)
			}
			// Worker 0 sits on partition 0; worker 1 answers everything else.
			act, err := c.Step(Tick(0))
			if err != nil {
				t.Fatal(err)
			}
			for _, el := range tc.svc {
				if act.Wake != 0 {
					t.Fatalf("wake %v with no idle worker to clone onto", act.Wake)
				}
				if act, err = c.Step(Event{Now: ms, Worker: 1, Outcome: OK, Elapsed: el}); err != nil {
					t.Fatal(err)
				}
			}
			if act.Wake != tc.want {
				t.Fatalf("wake = %v, want %v", act.Wake, tc.want)
			}
		})
	}
}

// Random batches under random faults, driven in virtual time. Every one
// must terminate with each partition accepted exactly once, and the
// wake instant must be honest: strictly in the future, and when the
// driver ticks at it, the core acts — it dispatches, or (a probe with
// nothing to clone) moves the wake strictly later. A wake into a tick
// that refuses to act is the driver's busy loop. The recorded run must
// also replay, step for step, to the identical actions.
func TestWakeIsNeverANoOpAndRunsReplay(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		workers := 1 + rng.Intn(5)
		cfg := Config{
			MaxAttempts:       50,
			MaxWorkerFailures: 1 + rng.Intn(3),
			Speculate:         rng.Intn(2) == 0,
			SpeculationFloor:  time.Duration(1+rng.Intn(40)) * ms,
		}
		if rng.Intn(2) == 0 {
			cfg.ReadmitAfter = time.Duration(1+rng.Intn(30)) * ms
		}
		parts := make([]int, 1+rng.Intn(3))
		total := 0
		for j := range parts {
			parts[j] = 1 << rng.Intn(4)
			total += parts[j]
		}
		c, err := New(workers, cfg, parts)
		if err != nil {
			t.Fatal(err)
		}
		type flight struct {
			since time.Duration
			busy  bool
		}
		flights := make([]flight, workers)
		var log []step
		accepted := 0
		var now time.Duration
		act, err := c.Step(Tick(0))
		log = append(log, tick(0, act))
		for steps := 0; err == nil && !act.Done; steps++ {
			if steps > 10000 {
				t.Fatalf("seed %d: no progress after %d steps", seed, steps)
			}
			for _, d := range act.Dispatch {
				if flights[d.Worker].busy {
					t.Fatalf("seed %d: worker %d dispatched to while busy", seed, d.Worker)
				}
				flights[d.Worker] = flight{since: now, busy: true}
			}
			if act.Wake != 0 && act.Wake <= now {
				t.Fatalf("seed %d: wake %v not after now %v", seed, act.Wake, now)
			}
			var busy []int
			for ni, f := range flights {
				if f.busy {
					busy = append(busy, ni)
				}
			}
			// Mostly let the wake fire first, so speculation and probes run.
			if act.Wake != 0 && (len(busy) == 0 || rng.Intn(3) > 0) {
				prev := act.Wake
				now = prev
				act, err = c.Step(Tick(now))
				log = append(log, tick(now, act))
				if err == nil && len(act.Dispatch) == 0 && act.Wake <= prev {
					t.Fatalf("seed %d: tick at the wake instant %v did nothing: %+v", seed, prev, act)
				}
				continue
			}
			ni := busy[rng.Intn(len(busy))]
			now += time.Duration(1+rng.Intn(20)) * ms
			out := OK
			switch r := rng.Intn(10); {
			case r < 2:
				out = Failed
			case r == 2:
				out = Canceled
			}
			flights[ni].busy = false
			ev := Event{Now: now, Worker: ni, Outcome: out, Elapsed: now - flights[ni].since}
			act, err = c.Step(ev)
			log = append(log, step{ev: ev, want: act})
			if act.Accepted {
				accepted++
			}
		}
		if err != nil {
			// Random faults may legitimately exclude every worker.
			if !strings.Contains(err.Error(), "workers failed") {
				t.Fatalf("seed %d: %v", seed, err)
			}
			continue
		}
		if accepted != total {
			t.Fatalf("seed %d: %d answers accepted for %d partitions", seed, accepted, total)
		}
		replay, err := New(workers, cfg, parts)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range log {
			got, err := replay.Step(s.ev)
			if err != nil || !reflect.DeepEqual(got, s.want) {
				t.Fatalf("seed %d: replay diverged at step %d: %+v (%v), recorded %+v", seed, i, got, err, s.want)
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	nan := func() float64 { var z float64; return z / z }
	cases := []struct {
		workers int
		cfg     Config
		want    string
	}{
		{1, Config{Weights: []float64{1, 2}}, "2 weights for 1 workers"},
		{2, Config{Weights: []float64{1, 0}}, "weight 1 is 0, must be positive"},
		{2, Config{Weights: []float64{1, nan()}}, "weight 1 is NaN, must be positive"},
		{1, Config{Timeout: -time.Second}, "negative timeout -1s"},
		{1, Config{MaxAttempts: -1}, "negative attempt budget -1"},
		{1, Config{MaxWorkerFailures: -2}, "negative worker failure limit -2"},
		{1, Config{SpeculationMultiplier: 0.5}, "speculation multiplier 0.5 below 1"},
		{1, Config{SpeculationFloor: -time.Second}, "negative speculation floor -1s"},
		{1, Config{ReadmitAfter: -time.Second}, "negative re-admission backoff -1s"},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(tc.workers); err == nil || err.Error() != tc.want {
			t.Errorf("%+v: error %v, want %q", tc.cfg, err, tc.want)
		}
		if _, err := New(tc.workers, tc.cfg, []int{1}); err == nil {
			t.Errorf("%+v: New accepted an invalid config", tc.cfg)
		}
	}
	if _, err := New(0, Config{}, []int{1}); err == nil {
		t.Error("New accepted an empty worker pool")
	}
	got := Config{}.WithDefaults()
	want := Config{MaxAttempts: DefaultMaxAttempts, MaxWorkerFailures: DefaultMaxWorkerFailures,
		SpeculationMultiplier: DefaultSpeculationMultiplier, SpeculationFloor: DefaultSpeculationFloor}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("defaults = %+v, want %+v", got, want)
	}
}

func TestAssignPartitionsRoundRobin(t *testing.T) {
	parts := Config{}.assign(3, 8)
	if len(parts[0]) != 3 || len(parts[1]) != 3 || len(parts[2]) != 2 {
		t.Fatalf("round robin = %v", parts)
	}
	checkCoverage(t, parts, 8)
}

func TestAssignPartitionsProportional(t *testing.T) {
	// A worker that is 3x as fast gets ~3x the partitions (footnote 1).
	parts := Config{Weights: []float64{3, 1}}.assign(2, 16)
	if len(parts[0]) != 12 || len(parts[1]) != 4 {
		t.Fatalf("proportional assignment = %d/%d want 12/4", len(parts[0]), len(parts[1]))
	}
	checkCoverage(t, parts, 16)

	// Largest-remainder rounding: 3 partitions over weights 1:1 gives
	// 2:1 or 1:2, never 3:0.
	parts = Config{Weights: []float64{1, 1}}.assign(2, 3)
	if len(parts[0])+len(parts[1]) != 3 || len(parts[0]) == 0 || len(parts[1]) == 0 {
		t.Fatalf("remainder assignment = %v", parts)
	}
	checkCoverage(t, parts, 3)
}

func checkCoverage(t *testing.T, parts [][]int, m int) {
	t.Helper()
	seen := map[int]bool{}
	for _, ps := range parts {
		for _, p := range ps {
			if seen[p] {
				t.Fatalf("partition %d assigned twice", p)
			}
			seen[p] = true
		}
	}
	if len(seen) != m {
		t.Fatalf("covered %d of %d partitions", len(seen), m)
	}
}
