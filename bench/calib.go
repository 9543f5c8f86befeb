package main

import (
	"io"
	"math"
	"net"
	"sync"
	"time"
)

// The reference box is a shared VM whose speed swings by up to a factor
// of two over tens of seconds with no load of ours (a neighbour on the
// sibling hyperthread). Wall-clock times of identical runs then spread
// by 30–60 %, wider than any useful bound. So the harness measures the
// machine's slowdown about once a second with two fixed kernels that
// share no code with the repository — floating-point work, which slows
// like the optimizers' inner loops, and loopback round trips between
// two goroutines, which slow like the serving path — and reports every
// time in reference milliseconds:
//
//	slowdown = √(compute time ÷ refComputeMs × round-trip time ÷ refPingMs)
//	reported = measured ÷ slowdown around the measurement
//
// On an undisturbed reference box the slowdown is 1. Its median is
// reported with every result, so measured ≈ reported × slowdown.
// README.md has the A/A record behind this.

// What the kernels take on the reference box when nothing disturbs it.
const (
	refComputeMs = 5.0
	refPingMs    = 0.75
)

// calibrator owns the loopback connection the round-trip kernel uses.
type calibrator struct {
	near, far net.Conn
	echoDone  chan struct{}
	at        time.Time // of the last reading
	last      float64
}

func newCalibrator() (*calibrator, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	near, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	far, err := ln.Accept()
	if err != nil {
		near.Close()
		return nil, err
	}
	c := &calibrator{near: near, far: far, echoDone: make(chan struct{})}
	go func() { // echoes until close closes far
		defer close(c.echoDone)
		io.Copy(far, far)
	}()
	return c, nil
}

// close stops the echo goroutine and waits for it.
func (c *calibrator) close() {
	c.near.Close()
	c.far.Close()
	<-c.echoDone
}

var kernelSink float64 // keeps the compute kernel's result alive

// computeKernel is a fixed amount of throughput-bound floating-point
// work.
func computeKernel() float64 {
	s := 0.0
	for i := 1; i < 400_000; i++ {
		f := float64(i)
		s += f*math.Log2(f+1)*1.0001 + f/3.7
	}
	return s
}

// computeMs times the compute kernel on every processor at once, five
// times each, and returns the mean over processors of the median.
func computeMs() float64 {
	meds := make([]float64, nproc())
	sinks := make([]float64, len(meds)) // one slot per goroutine: no sharing
	var wg sync.WaitGroup
	for p := range meds {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var ms [5]float64
			for r := range ms {
				t0 := time.Now()
				sinks[p] += computeKernel()
				ms[r] = float64(time.Since(t0)) / 1e6
			}
			meds[p] = median(ms[:])
		}(p)
	}
	wg.Wait()
	var total float64
	for p, m := range meds {
		total += m
		kernelSink += sinks[p]
	}
	return total / float64(len(meds))
}

// pingMs is the median of three timings of 100 loopback round trips of
// 64 bytes between this goroutine and the echo goroutine.
func (c *calibrator) pingMs() (float64, error) {
	buf := make([]byte, 64)
	var ms [3]float64
	for r := range ms {
		t0 := time.Now()
		for i := 0; i < 100; i++ {
			if _, err := c.near.Write(buf); err != nil {
				return 0, err
			}
			if _, err := io.ReadFull(c.near, buf); err != nil {
				return 0, err
			}
		}
		ms[r] = float64(time.Since(t0)) / 1e6
	}
	return median(ms[:]), nil
}

// slowdown returns how much slower than the undisturbed reference box
// the machine is now, measuring unless the last reading is younger than
// maxAge. A failing loopback counts as no information: the compute
// kernel alone decides. Not for concurrent use.
func (c *calibrator) slowdown(maxAge time.Duration) float64 {
	if !c.at.IsZero() && time.Since(c.at) < maxAge {
		return c.last
	}
	c.last = computeMs() / refComputeMs
	if ping, err := c.pingMs(); err == nil {
		c.last = math.Sqrt(c.last * ping / refPingMs)
	}
	c.at = time.Now()
	return c.last
}
