package server

import (
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// Plan-log defaults for PlanLogConfig fields left at zero.
const (
	defaultPlanLogMaxBytes = 8 << 20
	defaultPlanLogMaxFiles = 3
)

// planLogBuffer is the in-memory record buffer capacity. When the
// writer falls behind and the buffer fills, new records are dropped and
// counted (mpqd_planlog_dropped_total) — serving latency is never
// sacrificed to logging.
const planLogBuffer = 1024

// PlanLogConfig configures the bounded asynchronous decision log. The
// zero value disables logging.
type PlanLogConfig struct {
	// Path is the active log file; rotated files are Path.1 … Path.N.
	// Empty disables the log.
	Path string
	// MaxBytes caps the active file's size; exceeding it triggers
	// rotation. Zero means 8 MiB.
	MaxBytes int64
	// MaxFiles is how many rotated files to keep besides the active
	// one. Zero means 3.
	MaxFiles int
}

// Record is one plan-log line: the decision record of one optimization
// request, serialized as JSON (one object per line).
type Record struct {
	Time        time.Time `json:"time"`
	ID          string    `json:"id"`
	Tenant      string    `json:"tenant,omitempty"`
	Source      string    `json:"source"`
	Tables      int       `json:"tables"`
	Predicates  int       `json:"predicates"`
	Space       string    `json:"space"`
	Workers     int       `json:"workers"`
	Objective   string    `json:"objective"`
	QueueMicros int64     `json:"queueMicros"`
	ServeMicros int64     `json:"serveMicros"`

	// Success fields.
	Fingerprint    string  `json:"fingerprint,omitempty"`
	Cost           float64 `json:"cost,omitempty"`
	WorkUnits      uint64  `json:"workUnits,omitempty"`
	FrontierSize   int     `json:"frontierSize,omitempty"`
	CacheHit       bool    `json:"cacheHit,omitempty"`
	CacheCollapsed bool    `json:"cacheCollapsed,omitempty"`

	// Error is set instead of the success fields when the request
	// failed, expired or was canceled.
	Error string `json:"error,omitempty"`
}

// planLog writes records to a size-rotated file from a background
// goroutine, fed through a bounded channel so the serving path never
// blocks on disk.
type planLog struct {
	cfg  PlanLogConfig
	ch   chan Record
	done chan struct{}

	written   atomic.Uint64
	dropped   atomic.Uint64
	rotations atomic.Uint64

	f    *os.File
	size int64
}

// newPlanLog opens the log and starts its writer, or returns (nil, nil)
// when cfg disables logging.
func newPlanLog(cfg PlanLogConfig) (*planLog, error) {
	if cfg.Path == "" {
		return nil, nil
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = defaultPlanLogMaxBytes
	}
	if cfg.MaxFiles <= 0 {
		cfg.MaxFiles = defaultPlanLogMaxFiles
	}
	f, err := os.OpenFile(cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: plan log: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("server: plan log: %w", err)
	}
	l := &planLog{
		cfg:  cfg,
		ch:   make(chan Record, planLogBuffer),
		done: make(chan struct{}),
		f:    f,
		size: st.Size(),
	}
	go l.run()
	return l, nil
}

// record enqueues one record, dropping it (with a counter) when the
// buffer is full. Never blocks.
func (l *planLog) record(r Record) {
	select {
	case l.ch <- r:
	default:
		l.dropped.Add(1)
	}
}

func (l *planLog) run() {
	defer close(l.done)
	for r := range l.ch {
		b, err := json.Marshal(r)
		if err != nil {
			l.dropped.Add(1)
			continue
		}
		b = append(b, '\n')
		if l.size+int64(len(b)) > l.cfg.MaxBytes && l.size > 0 {
			l.rotate()
		}
		n, err := l.f.Write(b)
		l.size += int64(n)
		if err != nil {
			l.dropped.Add(1)
			continue
		}
		l.written.Add(1)
	}
	l.f.Close()
}

// rotate shifts path.i → path.(i+1), path → path.1, dropping the
// oldest, then reopens a fresh active file. Rotation errors are
// tolerated: worst case the active file keeps growing past the cap,
// which beats losing the daemon to a log problem.
func (l *planLog) rotate() {
	l.f.Close()
	os.Remove(fmt.Sprintf("%s.%d", l.cfg.Path, l.cfg.MaxFiles))
	for i := l.cfg.MaxFiles - 1; i >= 1; i-- {
		os.Rename(fmt.Sprintf("%s.%d", l.cfg.Path, i), fmt.Sprintf("%s.%d", l.cfg.Path, i+1))
	}
	os.Rename(l.cfg.Path, l.cfg.Path+".1")
	f, err := os.OpenFile(l.cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		// Reopen the old path in append mode as a last resort; if even
		// that fails, subsequent writes error and count as drops.
		f, _ = os.OpenFile(l.cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	}
	l.f = f
	l.size = 0
	l.rotations.Add(1)
}

// Close flushes buffered records and closes the file.
func (l *planLog) Close() {
	close(l.ch)
	<-l.done
}
