// Package netrun is a real shared-nothing runtime for MPQ: worker
// processes listen on TCP sockets, the master connects, sends each
// worker one (query, partition ID) job frame, and collects the
// partition-optimal plans — Algorithm 1 over an actual network.
//
// The protocol is deliberately minimal, mirroring the paper's
// one-round-per-query design: length-prefixed frames carrying the binary
// messages of internal/wire. A worker is stateless between queries; there
// is no session setup beyond the TCP handshake, no worker↔worker
// communication, and no shared state.
//
// # Failure model
//
// The master is fault tolerant. Plan-space partitions are disjoint and
// workers are stateless, so a partition whose worker crashes, hangs, or
// returns a damaged frame can be re-dispatched to any surviving worker
// without affecting the optimality argument of Algorithm 1. Concretely:
//
//   - Every job attempt has an end-to-end deadline (Options.Timeout)
//     covering dial, send, and receive. A hung worker is indistinguishable
//     from a slow one until the deadline fires; then its job is retried
//     elsewhere.
//   - Transport-level failures (dial errors, resets, timeouts, truncated
//     or corrupt frames, and wire.ErrBadRequest worker errors, which mean
//     the request was damaged in transit) are retryable: the partition
//     goes back into a re-dispatch queue, preferring workers that have
//     not yet failed it. Each partition has an attempt budget
//     (Options.MaxAttempts); exhausting it aborts the query.
//   - Deterministic failures (wire.ErrJobFailed worker errors — the job
//     decoded but the optimizer rejected it) are fatal immediately: every
//     worker would fail identically.
//   - A worker that fails Options.MaxWorkerFailures consecutive jobs is
//     excluded for the rest of the query (or batch) and its unstarted
//     share is re-dispatched to the survivors.
//   - Duplicated or stale response frames (a retransmission bug, a
//     replaying middlebox, the chaos proxy's duplicate-response action)
//     are detected by a per-connection sequence number echoed by the
//     worker (wire.JobRequest.Seq) and discarded; they are counted in
//     NetStats.IgnoredFrames of the query that sent that Seq, and never
//     reach the aggregation. A stale frame from an earlier call, read
//     on a connection the next call took warm, is counted by no call.
//
// Results are aggregated in partition-ID order regardless of arrival
// order or retries, so whenever at least one worker survives the answer
// is bit-identical to a failure-free run.
//
// # Serving
//
// Every listener that reads JobRequest frames is an Endpoint: the
// workers here (ListenWorker) and the resident daemon's wire front
// (internal/server). An endpoint accepts connections, reads each one's
// frames through one reused buffer under wire.MaxRequestFrame, refuses
// frames that are not requests, and writes every reply whole, under a
// per-connection mutex and a write deadline: a peer that stops reading
// loses its connection, not a goroutine. A CancelRequest frame cancels
// the context of the request it names, however many are in flight on
// the connection, and the request is answered WorkerError{ErrCanceled}.
// A peer that hangs up cancels all of its requests. What a request
// means is the Handler's: a worker runs the partition it names, one at
// a time per connection in arrival order; the daemon answers it from
// its plan cache or queues it.
//
// # Clients
//
// Every requester is a Client: the master, one per worker connection,
// and the daemon's client (internal/server). A Client pipelines
// requests over one connection; one read loop matches each reply to its
// request by Seq and reports the frames no pending request takes. The
// daemon's client abandons a request whose caller gave up, which sends
// the peer a CancelRequest for it; the master closes the client
// instead, and when a speculative clone wins it cancels the loser's
// request and still waits for its reply. A caller's deadline bounds
// only its own wait; the connection fails on a failed or stalled
// write, or a broken stream.
//
// # Cancellation and batches
//
// Master.Optimize aborts on context cancellation: the dispatcher stops
// handing out work, ends every attempt in flight — closing the client
// an attempt waited on — and waits for every goroutine before
// returning. A context deadline tightens each attempt's deadline.
// Master.OptimizeBatch pipelines the partitions of many independent
// queries through one pool of keep-alive connections, and returns
// answers bit-identical to one-query-at-a-time runs. The master keeps
// the connections warm across calls: a call takes an idle one before
// it dials, so a failure-free batch dials each worker at most once and
// the call after it none; a transport failure drops that worker's
// connection and the next attempt redials. Master.Close closes the
// idle connections.
package netrun
