package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"mpq"
	"mpq/internal/netrun"
	"mpq/internal/wire"
)

// Client is a wire-protocol client for a resident daemon. It implements
// mpq.Engine over one netrun.Client — the pipelined client the master
// runs on its worker connections — so concurrent requests share a
// single TCP connection and the daemon's completion-order replies are
// matched back to their callers by Seq: a cheap query never waits
// behind an expensive one submitted earlier on the same connection.
type Client struct {
	c *netrun.Client
}

// Dial connects to a daemon's wire listener.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("server: dial %s: %w", addr, err)
	}
	return &Client{c: netrun.NewClient(conn)}, nil
}

// Optimize sends one request and waits for its reply. It satisfies
// mpq.Engine: answers carry the same plans — same fingerprints — the
// daemon's engine produced. If ctx ends first, Optimize returns its
// error and cancels the request on the daemon.
func (c *Client) Optimize(ctx context.Context, q *mpq.Query, spec mpq.JobSpec) (*mpq.Answer, error) {
	start := time.Now()
	call, err := c.c.Send(ctx, &wire.JobRequest{Spec: spec, Query: q})
	if err != nil {
		return nil, err
	}
	reply, err := c.c.Wait(ctx, call)
	if err != nil {
		if ctx.Err() != nil {
			c.c.Abandon(call.Seq)
		}
		return nil, err
	}
	return buildClientAnswer(reply, spec, time.Since(start))
}

// buildClientAnswer reconstructs an mpq.Answer from a reply frame. The
// daemon sends its chosen Best explicitly as Plans[0] (the frontier
// follows for multi-objective jobs), so the client never re-derives the
// best-plan tie-break — near-tied cost lines cannot make the daemon
// engine's Best diverge from the in-process engine's.
func buildClientAnswer(reply netrun.Reply, spec mpq.JobSpec, elapsed time.Duration) (*mpq.Answer, error) {
	if we := reply.Remote; we != nil {
		if we.Code == wire.ErrOverloaded {
			return nil, fmt.Errorf("%w: %s", ErrOverloaded, we.Msg)
		}
		return nil, fmt.Errorf("server: remote: %s", we.Msg)
	}
	resp := reply.Resp
	if len(resp.Plans) == 0 {
		return nil, errors.New("server: remote returned no plans")
	}
	ans := &mpq.Answer{Best: resp.Plans[0], Stats: resp.Stats, Elapsed: elapsed}
	if spec.Objective.HasFrontier() && len(resp.Plans) > 1 {
		ans.Frontier = resp.Plans[1:]
	}
	return ans, nil
}

// OptimizeBatch pipelines the jobs over the connection concurrently —
// the daemon interleaves them under its fairness scheduler and replies
// in completion order — and collects the answers back in input order.
// Matching the Engine contract, the first failure fails the batch at
// once, abandoning the jobs still waiting: the daemon is sent a cancel
// for each.
func (c *Client) OptimizeBatch(ctx context.Context, jobs []mpq.Job) ([]*mpq.Answer, error) {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	answers := make([]*mpq.Answer, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if answers[i], err = c.Optimize(ctx, jobs[i].Query, jobs[i].Spec); err != nil {
				cancel(fmt.Errorf("batch job %d: %w", i, err))
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	return answers, nil
}

// Close tears down the connection; pending calls fail.
func (c *Client) Close() error { return c.c.Close() }
