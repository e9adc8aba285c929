package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"fpsa"
)

// The serve-http workload runs fpsa-serve with its default flags: MLP
// 16-24-4 trained with seed 7 for 40 epochs, spiking mode, 4 workers,
// batch 8, 500 µs flush.
const (
	serveSeed    = 7
	serveEpochs  = 40
	serveRefRate = 600.0 // req/s, the reference offered rate
	servePool    = 256   // distinct request vectors per run
	setupRepeats = 5     // server starts per run; the last one is measured
)

var serveLayers = []int{16, 24, 4}

// trainServed rebuilds, in process, the MLP fpsa-serve trains for a model
// whose data comes from dataSeed and whose weights and compile use seed.
func trainServed(dataSeed, seed int64, layers []int) (*fpsa.TrainedMLP, fpsa.Dataset, error) {
	ds := fpsa.SyntheticDataset(dataSeed, 900, layers[0], layers[len(layers)-1], 0.08)
	train, _ := ds.Split(2.0 / 3)
	net, err := fpsa.TrainMLP(seed, layers, train, serveEpochs)
	return net, ds, err
}

// pickVectors draws n distinct dataset rows for the run.
func pickVectors(rng *rand.Rand, ds fpsa.Dataset, n int) [][]float64 {
	perm := rng.Perm(len(ds.X))[:n]
	out := make([][]float64, n)
	for i, k := range perm {
		out[i] = ds.X[k]
	}
	return out
}

// startRepeated starts the server setupRepeats times, stopping all but
// the last, and returns the last with every start-to-ready time.
func startRepeated(e *env, args ...string) (*server, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		s, d, err := startServer(e.ctx, e.serveBin, args...)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if i == setupRepeats-1 {
			return s, setups, nil
		}
		if err := s.stop(); err != nil {
			return nil, nil, err
		}
	}
}

// classifyLoad is one open-loop phase of single-vector classify requests.
type classifyLoad struct {
	srv     *server
	client  *http.Client
	bodies  [][]byte // one JSON body per pool vector
	classes []int    // reply class per request
	pick    []int    // pool index per request
}

func (l *classifyLoad) run(ctx context.Context, conns int, sched []time.Duration, rng *rand.Rand) []outcome {
	l.pick = make([]int, len(sched))
	l.classes = make([]int, len(sched))
	for i := range l.pick {
		l.pick[i] = rng.Intn(len(l.bodies))
	}
	return runOpenLoop(ctx, sched, conns, func(i int) error {
		var reply struct {
			Class int `json:"class"`
		}
		if err := l.srv.post(l.client, "/v1/classify", l.bodies[l.pick[i]], &reply); err != nil {
			return err
		}
		l.classes[i] = reply.Class
		return nil
	})
}

// check compares every successful reply with the expected class.
func (l *classifyLoad) check(o *outcomeSet, outs []outcome, want []int) {
	for i, out := range outs {
		if out.err == nil && l.classes[i] != want[l.pick[i]] {
			o.mismatch("serve-http: request %d (vector %d) got class %d, in-process net says %d", i, l.pick[i], l.classes[i], want[l.pick[i]])
		}
	}
}

func countFailed(o *outcomeSet, outs []outcome) {
	for _, out := range outs {
		o.attempted++
		if out.err != nil {
			o.failed++
		}
	}
}

func logPhase(e *env, label string, p phase) {
	e.log("%s: offered %.1f/s achieved %.1f/s n=%d failed=%d latency p50 %.3f p90 %.3f p99 %.3f ms, generator lateness p50 %.3f max %.3f ms",
		label, p.Offered, p.Achieved, p.Requests, p.Failed, p.P50MS, p.P90MS, p.P99MS, p.LateP50MS, p.LateMaxMS)
}

// serveInputs builds the run's request vectors and their in-process
// classes: SpikingNet.Classify in spiking mode on a net rebuilt exactly
// as fpsa-serve builds it.
func serveInputs(e *env, rng *rand.Rand) (*fpsa.TrainedMLP, [][]float64, []int, error) {
	net, ds, err := trainServed(serveSeed, serveSeed, serveLayers)
	if err != nil {
		return nil, nil, nil, err
	}
	d, err := fpsa.Compile(e.ctx, net.Model(), fpsa.WithWeightSource(net.WeightSource()), fpsa.WithSeed(serveSeed))
	if err != nil {
		return nil, nil, nil, err
	}
	sn, err := d.NewNet(nil)
	if err != nil {
		return nil, nil, nil, err
	}
	vecs := pickVectors(rng, ds, servePool)
	want := make([]int, len(vecs))
	for i, v := range vecs {
		if want[i], err = sn.Classify(v, fpsa.ModeSpiking); err != nil {
			return nil, nil, nil, err
		}
	}
	return net, vecs, want, nil
}

// classifyBodies encodes one single-vector classify request per vector.
func classifyBodies(vecs [][]float64) [][]byte {
	out := make([][]byte, len(vecs))
	for i, v := range vecs {
		out[i], _ = json.Marshal(map[string][]float64{"features": v}) // float slices always marshal
	}
	return out
}

// engineStats is the part of fpsa-serve's /v1/stats the benchmark reads.
type engineStats struct {
	Requests      uint64
	MeanExecBatch float64
	SparseKernels uint64
	DenseKernels  uint64
	SpikeDensity  float64
	P50LatencyUS  float64
	P99LatencyUS  float64
}

// serveRun is one serve-http measurement: warm-up, the reference rate,
// then (untraced) the saturated capacity.
type serveRun struct {
	ref      phase
	stats    engineStats // /v1/stats right after the reference phase
	capacity float64
}

func measureServe(e *env, o *outcomeSet, srv *server, vecs [][]float64, want []int, refDur, satDur time.Duration) (*serveRun, error) {
	defer generatorGC()()
	rng := rand.New(rand.NewSource(e.seed))
	l := &classifyLoad{
		srv:    srv,
		client: newClient(e.nproc),
		bodies: classifyBodies(vecs),
	}
	defer l.client.CloseIdleConnections()
	phaseRun := func(label string, dur time.Duration) phase {
		outs := l.run(e.ctx, e.nproc, poissonSchedule(rng, serveRefRate, dur), rng)
		countFailed(o, outs)
		l.check(o, outs, want)
		p := summarize(serveRefRate, outs)
		logPhase(e, label, p)
		return p
	}
	phaseRun("warm-up", 500*time.Millisecond)
	r := &serveRun{}
	r.ref = phaseRun("reference", refDur)
	if err := srv.getJSON(l.client, "/v1/stats", &r.stats); err != nil {
		return nil, err
	}
	e.log("engine: p50 %.3f ms p99 %.3f ms mean exec batch %.2f", r.stats.P50LatencyUS/1e3, r.stats.P99LatencyUS/1e3, r.stats.MeanExecBatch)
	if satDur <= 0 {
		return r, nil
	}
	var next atomic.Int64
	var wrong atomic.Int64
	var failed int
	r.capacity, failed = runSaturated(e.ctx, e.nproc, satDur, func() error {
		k := int(next.Add(1)) % len(l.bodies)
		var reply struct {
			Class int `json:"class"`
		}
		if err := srv.post(l.client, "/v1/classify", l.bodies[k], &reply); err != nil {
			return err
		}
		if reply.Class != want[k] {
			wrong.Add(1)
		}
		return nil
	})
	o.attempted += int(r.capacity*satDur.Seconds()) + failed
	o.failed += failed
	if n := wrong.Load(); n > 0 {
		o.mismatch("serve-http: %d saturated replies differ from the in-process net", n)
	}
	e.log("saturated: %.1f replies/s over %d connections, %d failed", r.capacity, e.nproc, failed)
	return r, nil
}

func runServeHTTP(e *env) (*outcomeSet, error) {
	o := &outcomeSet{}
	srv, setups, err := startRepeated(e)
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	net, vecs, want, err := serveInputs(e, rand.New(rand.NewSource(e.seed)))
	if err != nil {
		return nil, err
	}
	r, err := measureServe(e, o, srv, vecs, want, e.window*6/10, e.window*15/100)
	if err != nil {
		return nil, err
	}
	err = srv.stop()
	srv = nil
	if err != nil {
		return nil, err
	}
	g, err := mlpGuards(e.ctx, map[int64]*fpsa.TrainedMLP{serveSeed: net})
	if err != nil {
		return nil, err
	}
	o.set("setup_s", "s", median(setups))
	o.set("latency_p50_ms", "ms", r.ref.P50MS)
	o.set("throughput_per_s", "1/s", r.capacity)
	o.set("success_rate", "fraction", 1-float64(o.failed)/float64(o.attempted))
	g.report(o)
	return o, nil
}

// generatorGC readies this process to act as a load generator next to
// the server on a shared host: it collects the set-up's garbage now and
// collects less often while the load runs, so the generator's own pauses
// stay out of the measured latencies. The returned function restores the
// collector for the in-process work that follows.
func generatorGC() (restore func()) {
	runtime.GC()
	old := debug.SetGCPercent(400)
	return func() { debug.SetGCPercent(old) }
}
