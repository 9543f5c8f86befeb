// Package cliutil provides the -engine flag shared by the mpq command
// line tools and the examples: one way to name an execution engine
// (serial, local, sim, tcp, daemon), one set of tuning flags per
// engine, and one constructor turning the selection into an
// mpq.Engine. Every tool that optimizes a query offers the same
// choices with the same spellings, which is what makes engine
// equivalence a user-visible property rather than a test-suite secret.
package cliutil

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mpq"
	"mpq/internal/sched"
	"mpq/internal/server"
)

// EngineNames lists the accepted -engine values.
func EngineNames() []string { return []string{"serial", "local", "sim", "tcp", "daemon"} }

// EngineFlags collects the shared engine-selection flags after
// parsing. Zero values mean engine defaults.
type EngineFlags struct {
	// Engine is the -engine value: serial, local, sim, tcp or daemon.
	Engine string
	// TCPWorkers is the comma-separated worker address list (tcp engine).
	TCPWorkers string
	// Policy is the master's policy (tcp and sim engines): -timeout,
	// -retries, -max-worker-failures, -speculate, -spec-multiplier,
	// -spec-floor and -readmit-after bind straight into it, and Build hands it unchanged to either engine. Policy.Timeout
	// doubles as the daemon engine's dial timeout.
	Policy sched.Config
	// Kill crashes simulated nodes 0..Kill-1 mid-query (sim engine).
	Kill int
	// Stall slows this many simulated workers by StallFactor (sim engine).
	Stall int
	// StallFactor is the stalled workers' slowdown (sim engine).
	StallFactor float64
	// Nodes is the size of the simulated node pool (sim engine; 0 = one
	// node per partition).
	Nodes int
	// DaemonAddr is a resident mpqd's wire address (daemon engine).
	DaemonAddr string
}

// Register installs the shared flags on fs with the given default
// engine and returns the destination struct; call Build after parsing.
func Register(fs *flag.FlagSet, def string) *EngineFlags {
	ef := &EngineFlags{}
	fs.StringVar(&ef.Engine, "engine", def,
		"execution engine: "+strings.Join(EngineNames(), ", ")+
			" (serial DP, goroutine workers, cluster simulation, remote TCP workers, a resident mpqd)")
	fs.StringVar(&ef.TCPWorkers, "tcp-workers", "",
		"tcp engine: comma-separated worker addresses (start them with: mpqnode worker)")
	fs.DurationVar(&ef.Policy.Timeout, "timeout", 0,
		"tcp/sim: per-attempt deadline — tcp bounds dial, send, compute and receive (0 = default 2m), sim declares a silent node dead this long after its request arrived (0 = default 10s); daemon engine: dial timeout (0 = 10s)")
	fs.IntVar(&ef.Policy.MaxAttempts, "retries", 0,
		"tcp/sim: attempts per partition before giving up (0 = default 3)")
	fs.IntVar(&ef.Policy.MaxWorkerFailures, "max-worker-failures", 0,
		"tcp/sim: consecutive failures before a worker is excluded (0 = default 2)")
	fs.BoolVar(&ef.Policy.Speculate, "speculate", false,
		"tcp/sim: race straggling partitions against speculative clones on idle workers")
	fs.Float64Var(&ef.Policy.SpeculationMultiplier, "spec-multiplier", 0,
		"tcp/sim: straggler threshold as a multiple of the median service time (0 = default 2)")
	fs.DurationVar(&ef.Policy.SpeculationFloor, "spec-floor", 0,
		"tcp/sim: lower bound on the straggler threshold (0 = default 250ms)")
	fs.DurationVar(&ef.Policy.ReadmitAfter, "readmit-after", 0,
		"tcp/sim: probe excluded workers with a pending partition after this backoff (0 = never)")
	fs.IntVar(&ef.Kill, "kill", 0,
		"sim engine: crash nodes 0..N-1 mid-query and measure recovery (the master's attempt budget applies: 3 adjacent deaths fail the query)")
	fs.IntVar(&ef.Stall, "stall", 0,
		"sim engine: slow this many simulated workers by -stall-factor")
	fs.Float64Var(&ef.StallFactor, "stall-factor", 0,
		"sim engine: compute slowdown of -stall workers (0 = default 100)")
	fs.IntVar(&ef.Nodes, "nodes", 0,
		"sim engine: size of the simulated node pool (0 = one node per partition)")
	fs.StringVar(&ef.DaemonAddr, "daemon-addr", "",
		"daemon engine: wire address of a running mpqd (start one with: mpqd -wire ADDR)")
	return ef
}

// Build constructs the selected engine. The policy and the sim engine's
// fault script are checked where the pool size is known: NewTCPEngine
// for tcp, the first Optimize for sim.
func (ef *EngineFlags) Build() (mpq.Engine, error) {
	switch strings.ToLower(ef.Engine) {
	case "serial":
		return mpq.NewSerialEngine(), nil
	case "local":
		return mpq.NewInProcessEngine(), nil
	case "sim":
		if ef.Nodes < 0 {
			return nil, fmt.Errorf("-nodes %d must not be negative", ef.Nodes)
		}
		if ef.Kill < 0 {
			return nil, fmt.Errorf("-kill %d must not be negative", ef.Kill)
		}
		if ef.Stall < 0 {
			return nil, fmt.Errorf("-stall %d must not be negative", ef.Stall)
		}
		model := mpq.DefaultClusterModel()
		model.Nodes = ef.Nodes
		faults := mpq.ClusterFaults{StallFactor: ef.StallFactor, Policy: ef.Policy}
		for i := 0; i < ef.Kill; i++ {
			faults.Dead = append(faults.Dead, i)
		}
		// Stalled nodes follow the dead ones so the scripts don't overlap.
		for i := 0; i < ef.Stall; i++ {
			faults.Stalled = append(faults.Stalled, ef.Kill+i)
		}
		return mpq.NewSimEngine(mpq.WithClusterModel(model), mpq.WithClusterFaults(faults)), nil
	case "tcp":
		if ef.TCPWorkers == "" {
			return nil, fmt.Errorf("-engine tcp requires -tcp-workers host:port[,host:port...]")
		}
		addrs := strings.Split(ef.TCPWorkers, ",")
		for i, a := range addrs {
			addrs[i] = strings.TrimSpace(a)
		}
		return mpq.NewTCPEngine(addrs, mpq.WithMasterOptions(ef.Policy))
	case "daemon":
		if ef.DaemonAddr == "" {
			return nil, fmt.Errorf("-engine daemon requires -daemon-addr host:port")
		}
		c, err := server.Dial(ef.DaemonAddr, cmp.Or(ef.Policy.Timeout, 10*time.Second))
		if err != nil {
			return nil, err
		}
		return c, nil
	default:
		return nil, fmt.Errorf("unknown engine %q (want %s)", ef.Engine, strings.Join(EngineNames(), ", "))
	}
}

// Describe renders one answer line for the engine that produced ans:
// the simulator's virtual time and traffic, the TCP runtime's measured
// network stats, or the in-process wall clock.
func Describe(ans *mpq.Answer) string {
	switch c := ans.Cluster; {
	case c != nil:
		line := fmt.Sprintf("virtual %v, network %d bytes in %d messages, peak memo %d relations",
			c.VirtualTime.Round(1000), c.Bytes, c.Messages, ans.Stats.MemoEntries) + describeCounters(c.Counters)
		if c.RecoveryOverhead > 0 || c.WastedWork > 0 {
			line += fmt.Sprintf("; recovery overhead %v, %d work units wasted", c.RecoveryOverhead.Round(1000), c.WastedWork)
		}
		return line
	case ans.Net != nil:
		return fmt.Sprintf("wall %v; network %d bytes sent, %d received, %d messages over %d new connections",
			ans.Elapsed.Round(1000), ans.Net.BytesSent, ans.Net.BytesReceived, ans.Net.Messages, ans.Net.Dials) +
			describeCounters(ans.Net.Counters)
	default:
		return fmt.Sprintf("wall %v (slowest worker %v)",
			ans.Elapsed.Round(1000), ans.MaxWorkerElapsed.Round(1000))
	}
}

// describeCounters renders the scheduling counters either master
// reports, omitting the groups that stayed zero.
func describeCounters(n sched.Counters) string {
	var s string
	if n.Redispatched > 0 {
		s += fmt.Sprintf("; recovered from failures: %d re-dispatched", n.Redispatched)
	}
	if n.Speculations > 0 {
		s += fmt.Sprintf("; %d speculations (%d wasted)", n.Speculations, n.SpeculationWasted)
	}
	if n.Probes > 0 {
		s += fmt.Sprintf("; %d probes, %d workers readmitted", n.Probes, n.Readmitted)
	}
	return s
}

// MustParseEngine is the examples' one-liner: it registers the shared
// flags on the default flag set with the given default engine, parses
// the command line, and builds the engine. Errors are fatal.
func MustParseEngine(def string) mpq.Engine {
	ef := Register(flag.CommandLine, def)
	flag.Parse()
	eng, err := ef.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "engine:", err)
		os.Exit(1)
	}
	return eng
}
