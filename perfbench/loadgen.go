package main

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// poissonSchedule returns the intended send offsets of round(rate·dur)
// Poisson arrivals over dur: a Poisson process conditioned on its count,
// i.e. that many uniform times, sorted. Fixing the count keeps the
// offered load exact while the gaps stay exponential. The same rng seed
// always yields the same schedule.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	n := int(math.Round(rate * dur.Seconds()))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(dur))
	}
	slices.Sort(out)
	return out
}

// outcome is one open-loop request. Offsets are from the run's start.
// Latency runs from the intended send time, so a stall that delays later
// sends is charged to every request it delays (no coordinated omission).
type outcome struct {
	intended time.Duration // when the schedule wanted the request sent
	sent     time.Duration // when a connection actually sent it
	done     time.Duration // when the reply was fully read
	err      error
}

func (o outcome) latency() time.Duration { return o.done - o.intended }

// lateness is how far behind its schedule the generator put the request
// on the wire: dispatcher delay plus waiting for a free connection.
func (o outcome) lateness() time.Duration { return o.sent - o.intended }

// runOpenLoop issues request i at sched[i] from conns sender goroutines,
// whatever the state of earlier requests, and returns one outcome per
// request. do performs request i and reports its error; it must be safe
// for concurrent use. A cancelled ctx stops dispatching; undispatched
// requests report ctx.Err().
func runOpenLoop(ctx context.Context, sched []time.Duration, conns int, do func(i int) error) []outcome {
	out := make([]outcome, len(sched))
	// Sized to every send so the dispatcher never blocks on a busy
	// sender: queueing for a connection must show up as lateness.
	jobs := make(chan int, len(sched))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i].sent = time.Since(start)
				out[i].err = do(i)
				out[i].done = time.Since(start)
			}
		}()
	}
	dispatched := len(sched)
	timer := time.NewTimer(0)
	defer timer.Stop()
dispatch:
	for i, at := range sched {
		out[i].intended = at
		if wait := at - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				dispatched = i
				break dispatch
			}
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i := dispatched; i < len(sched); i++ {
		out[i].intended = sched[i]
		out[i].err = ctx.Err()
	}
	return out
}

// runSaturated keeps conns connections busy back to back for dur and
// returns the completed requests per second: the most the server
// delivers to nproc keep-alive connections, i.e. the rate above which
// an open-loop backlog grows without bound.
func runSaturated(ctx context.Context, conns int, dur time.Duration, do func() error) (perSec float64, failed int) {
	var done, bad atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur && ctx.Err() == nil {
				if do() != nil {
					bad.Add(1)
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()-bad.Load()) / time.Since(start).Seconds(), int(bad.Load())
}

// percentile is the nearest-rank p-quantile (p in [0,1]) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

func sortedCopy(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

// phase summarises the outcomes of one offered rate.
type phase struct {
	Offered   float64 // scheduled requests/s
	Achieved  float64 // successful replies/s from the first intended send to the last reply
	Requests  int
	Failed    int
	P50MS     float64 // latency from intended send, successful requests
	P90MS     float64
	P99MS     float64
	LateP50MS float64 // median send lateness
	LateMaxMS float64
}

// summarize reduces one phase's outcomes.
func summarize(offered float64, outs []outcome) phase {
	p := phase{Offered: offered, Requests: len(outs)}
	var lat, late []float64
	var first, last time.Duration
	if len(outs) > 0 {
		first = outs[0].intended
	}
	for _, o := range outs {
		last = max(last, o.done)
		late = append(late, ms(o.lateness()))
		if o.err != nil {
			p.Failed++
			continue
		}
		lat = append(lat, ms(o.latency()))
	}
	if last > first {
		p.Achieved = float64(len(lat)) / (last - first).Seconds()
	}
	if len(lat) > 0 {
		s := sortedCopy(lat)
		p.P50MS, p.P90MS, p.P99MS = percentile(s, 0.5), percentile(s, 0.9), percentile(s, 0.99)
	}
	if len(late) > 0 {
		s := sortedCopy(late)
		p.LateP50MS, p.LateMaxMS = percentile(s, 0.5), s[len(s)-1]
	}
	return p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
