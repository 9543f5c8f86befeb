// Command mpqd is the resident optimizer daemon: it keeps one
// mpq.Engine warm behind an HTTP/JSON API and the binary wire
// protocol, with admission control, per-tenant weighted fairness,
// completion-order streaming, a plan decision log, and graceful drain.
//
// Start a daemon on the in-process engine with a 64 MiB plan cache:
//
//	mpqd -http :8080 -wire :9990 -cache-bytes 67108864
//
// Submit a query over HTTP:
//
//	curl -d '{"query": '"$(cat q.json)"', "workers": 4}' localhost:8080/v1/optimize
//
// Or over the wire protocol, through any mpq tool:
//
//	mpqopt -engine daemon -daemon-addr localhost:9990 -query q.json
//
// Operations endpoints: GET /healthz (503 while draining), GET
// /metrics (Prometheus text), /debug/pprof/. The first SIGINT/SIGTERM
// drains (stop accepting, finish in-flight work, bounded by
// -drain-timeout); a second signal force-kills. See docs/operations.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mpq"
	"mpq/internal/cliutil"
	"mpq/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mpqd:", err)
		os.Exit(1)
	}
}

func run() error {
	httpAddr := flag.String("http", ":8080", "HTTP listen address (empty to disable)")
	wireAddr := flag.String("wire", "", "wire-protocol listen address (empty to disable)")
	queueDepth := flag.Int("queue-depth", 0, "arrival queue bound; beyond it requests are rejected (0 = default 256)")
	dispatchers := flag.Int("dispatchers", 0, "concurrent engine calls (0 = default 4)")
	defaultTimeout := flag.Duration("default-timeout", 0, "deadline for requests that carry none (0 = 1m)")
	drainTimeout := flag.Duration("drain-timeout", server.DefaultDrainWait, "grace period for in-flight work on shutdown")
	weights := flag.String("tenant-weights", "", "per-tenant fairness weights, e.g. team-a=3,team-b=1 (unlisted tenants get 1)")
	cacheBytes := flag.Int64("cache-bytes", 0, "wrap the engine in a plan cache with this eviction budget (0 = no cache)")
	planLog := flag.String("plan-log", "", "plan decision log path (JSON lines; empty to disable)")
	planLogBytes := flag.Int64("plan-log-max-bytes", 0, "plan log size before rotation (0 = 8 MiB)")
	planLogFiles := flag.Int("plan-log-max-files", 0, "rotated plan log files to keep (0 = 3)")
	ef := cliutil.Register(flag.CommandLine, "local")
	flag.Parse()

	tenantWeights, err := parseWeights(*weights)
	if err != nil {
		return err
	}
	eng, err := ef.Build()
	if err != nil {
		return err
	}
	if *cacheBytes > 0 {
		eng = mpq.WithCache(eng, mpq.CacheConfig{MaxBytes: *cacheBytes})
	}

	srv, err := server.New(server.Config{
		Engine:         eng,
		HTTPAddr:       *httpAddr,
		WireAddr:       *wireAddr,
		QueueDepth:     *queueDepth,
		Dispatchers:    *dispatchers,
		DefaultTimeout: *defaultTimeout,
		TenantWeights:  tenantWeights,
		PlanLog: server.PlanLogConfig{
			Path:     *planLog,
			MaxBytes: *planLogBytes,
			MaxFiles: *planLogFiles,
		},
	})
	if err != nil {
		return err
	}

	// First signal starts the drain; because SignalContext releases the
	// registration immediately, a second signal force-kills the process
	// even if the drain is still running.
	ctx, stop := cliutil.SignalContext(context.Background())
	defer stop()

	if err := srv.Start(); err != nil {
		return err
	}
	if a := srv.HTTPAddr(); a != "" {
		fmt.Printf("mpqd: http on %s\n", a)
	}
	if a := srv.WireAddr(); a != "" {
		fmt.Printf("mpqd: wire on %s\n", a)
	}
	<-ctx.Done()
	fmt.Printf("mpqd: draining (up to %v; press Ctrl-C again to force quit)\n", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return err
	}
	fmt.Println("mpqd: drained cleanly")
	return nil
}

// parseWeights parses "a=3,b=1.5" into a weight map.
func parseWeights(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	m := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -tenant-weights entry %q (want name=weight)", part)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad weight %q for tenant %q (want a positive number)", val, name)
		}
		m[name] = w
	}
	return m, nil
}
