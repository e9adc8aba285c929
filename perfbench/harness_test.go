package main

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoissonScheduleDeterministicPerSeed(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(5)), 600, 2*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(5)), 600, 2*time.Second)
	c := poissonSchedule(rand.New(rand.NewSource(6)), 600, 2*time.Second)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 1200 {
		t.Fatalf("got %d arrivals, want exactly rate·dur = 1200", len(a))
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= 2*time.Second {
		t.Fatalf("schedule not sorted within [0, 2s): first %v last %v", a[0], a[len(a)-1])
	}
}

// A server that stalls once must inflate the latency of the requests
// scheduled during the stall, even though their own service is fast:
// latency runs from the intended send time.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	var n atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 3 {
			time.Sleep(200 * time.Millisecond)
		}
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	client := newClient(1)
	defer client.CloseIdleConnections()
	sched := make([]time.Duration, 20)
	for i := range sched {
		sched[i] = time.Duration(i) * 10 * time.Millisecond
	}
	outs := runOpenLoop(context.Background(), sched, 1, func(int) error {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	})
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
	}
	// Request 3 (index 3) was due at 30 ms but its connection was busy
	// with the stalled request until ≥ 220 ms.
	if l := outs[3].latency(); l < 150*time.Millisecond {
		t.Errorf("request after the stall: latency %v, want ≥ 150ms (stall charged)", l)
	}
	if s := outs[3].done - outs[3].sent; s > 100*time.Millisecond {
		t.Errorf("request after the stall: service time %v, want the stall outside it", s)
	}
	if l := outs[3].lateness(); l < 150*time.Millisecond {
		t.Errorf("request after the stall: lateness %v, want ≥ 150ms", l)
	}
	if l := outs[0].latency(); l > 100*time.Millisecond {
		t.Errorf("request before the stall: latency %v, want small", l)
	}
}

func TestOpenLoopCancelledReportsUnsent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outs := runOpenLoop(ctx, []time.Duration{0, time.Hour}, 1, func(int) error { return nil })
	if outs[0].err != nil || outs[1].err == nil {
		t.Fatalf("errors %v, %v: want the due request sent and the future one cancelled", outs[0].err, outs[1].err)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestSummarize(t *testing.T) {
	var outs []outcome
	for i := 0; i < 1000; i++ {
		at := time.Duration(i) * time.Millisecond
		lat := time.Duration(1+i%100) * time.Millisecond // 1..100 ms, ten times over
		outs = append(outs, outcome{intended: at, sent: at + time.Duration(i%10)*time.Millisecond, done: at + lat})
	}
	outs = append(outs, outcome{intended: time.Second, sent: time.Second, err: io.EOF})
	p := summarize(1000, outs)
	if p.P50MS != 50 || p.P90MS != 90 || p.P99MS != 99 {
		t.Errorf("percentiles %v/%v/%v ms, want 50/90/99", p.P50MS, p.P90MS, p.P99MS)
	}
	if p.Failed != 1 || p.Requests != 1001 || p.LateMaxMS != 9 {
		t.Errorf("summary %+v", p)
	}
	if p.Achieved < 900 || p.Achieved > 1000 {
		t.Errorf("achieved %v/s, want 1000 replies over ~1.1 s", p.Achieved)
	}
}

func TestRunSaturatedCountsFailures(t *testing.T) {
	var n atomic.Int64
	rate, failed := runSaturated(context.Background(), 2, 50*time.Millisecond, func() error {
		time.Sleep(time.Millisecond)
		if n.Add(1)%4 == 0 {
			return io.EOF
		}
		return nil
	})
	if failed == 0 || rate <= 0 || int64(failed) > n.Load() {
		t.Fatalf("rate %v failed %d of %d", rate, failed, n.Load())
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int64) int64 { return v * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(20), End: ms(50)}, // overlaps a
		{ID: 4, Parent: 1, Name: "a", Start: ms(60), End: ms(70)},
		{ID: 5, Parent: 4, Name: "leaf", Start: ms(62), End: ms(65)},
		{ID: 6, Parent: 1, Name: "late", Start: ms(90), End: ms(120)}, // runs past its parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: 100*time.Millisecond - 40*time.Millisecond - 10*time.Millisecond - 10*time.Millisecond,
		2: 20 * time.Millisecond,
		3: 30 * time.Millisecond,
		4: 7 * time.Millisecond,
		5: 3 * time.Millisecond,
		6: 30 * time.Millisecond,
	} {
		if self[id] != want {
			t.Errorf("span %d self %v, want %v", id, self[id], want)
		}
	}
	byName := selfByName(spans)
	if got := byName["a"]; got != 27*time.Millisecond {
		t.Errorf("self time of a = %v, want 27ms", got)
	}
}

func TestTracerRecordsParentAndRequest(t *testing.T) {
	tr := newTracer()
	root, end := tr.begin(0, "r1", "root")
	tr.do(root, "r1", "child", func() {})
	end()
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Req != "r1" || spans[0].End < spans[1].End {
		t.Fatalf("spans %+v", spans)
	}
	var nilTracer *tracer
	id, stop := nilTracer.begin(0, "r", "x")
	stop()
	if id != 0 || nilTracer.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
}
