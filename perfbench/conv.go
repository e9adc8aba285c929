package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"fpsa"
	"fpsa/internal/cgraph"
	"fpsa/internal/synth"
)

// The conv-batch workload scores a small spiking CNN offline: 2×10×10
// input → conv 8@3×3 → ReLU → maxpool 2 → global average pool → FC 4 →
// ReLU, weights uniform in ±1/fan-in from a fixed seed. With these
// weights the output spike counts are live (not all zero), unlike a
// LeNet with random weights.
const (
	convBatch     = 16
	convPoolCalls = 8 // distinct calls' worth of input vectors per run
	convWeightSrc = 9
)

func convModel() (fpsa.Model, map[string][][]float64, error) {
	m, err := fpsa.NewModelBuilder("convbench", 2, 10, 10).
		Conv2D(8, 3, 1, 1).ReLU().
		MaxPool(2, 2).
		GlobalAvgPool().
		FC(4).ReLU().
		Build()
	if err != nil {
		return fpsa.Model{}, nil, err
	}
	rng := rand.New(rand.NewSource(convWeightSrc))
	mk := func(rows, cols int) [][]float64 {
		w := make([][]float64, rows)
		for r := range w {
			w[r] = make([]float64, cols)
			for c := range w[r] {
				w[r][c] = (rng.Float64()*2 - 1) / float64(rows)
			}
		}
		return w
	}
	layers := m.WeightLayers()
	return m, map[string][][]float64{layers[0]: mk(2*3*3, 8), layers[1]: mk(8, 4)}, nil
}

// convGraph builds the same network through the internal graph layer, as
// ModelBuilder names it, for the traced replay.
func convGraph() (*cgraph.Graph, error) {
	g := cgraph.New("convbench")
	x, err := g.Input("input", cgraph.Shape{C: 2, H: 10, W: 10})
	if err != nil {
		return nil, err
	}
	for i, op := range []cgraph.Op{
		cgraph.Conv2D{OutC: 8, Kernel: 3, Stride: 1, Pad: 1}, cgraph.ReLU{},
		cgraph.Pool{PoolKind: cgraph.MaxPoolKind, Kernel: 2, Stride: 2},
		cgraph.GlobalAvgPool{},
		cgraph.FC{Out: 4}, cgraph.ReLU{},
	} {
		if x, err = g.Add(fmt.Sprintf("%s%d", op.Kind(), i+1), op, x); err != nil {
			return nil, err
		}
	}
	return g, g.Validate()
}

// convCallSize is one ClassifyBatch call: a full micro-batch of 16 for
// every worker, so each call keeps all nproc workers busy at batch 16
// and no two callers' items interleave inside a micro-batch.
func convCallSize(e *env) int { return convBatch * e.nproc }

func convInputs(e *env) [][]float64 {
	rng := rand.New(rand.NewSource(e.seed))
	out := make([][]float64, convPoolCalls*convCallSize(e))
	for i := range out {
		out[i] = make([]float64, 2*10*10)
		for j := range out[i] {
			out[i][j] = rng.Float64()
		}
	}
	return out
}

// convEngine compiles the model and starts the measured engine; the
// engine is ready once it has answered a first classification.
func convEngine(e *env, m fpsa.Model, w map[string][][]float64, opts ...fpsa.EngineOption) (*fpsa.Engine, error) {
	d, err := fpsa.Compile(e.ctx, m, fpsa.WithWeights(w))
	if err != nil {
		return nil, err
	}
	eng, err := d.NewEngine(e.ctx, append([]fpsa.EngineOption{fpsa.WithWorkers(e.nproc), fpsa.WithMaxBatch(convBatch)}, opts...)...)
	if err != nil {
		return nil, err
	}
	if _, err := eng.Outputs(e.ctx, make([]float64, 2*10*10)); err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

// convCall is one timed ClassifyBatch call starting at input first.
type convCall struct {
	first  int
	labels []int
	err    error
	ms     float64
}

// convScore submits calls back to back from one caller for dur.
func convScore(e *env, eng *fpsa.Engine, in [][]float64, dur time.Duration) ([]convCall, time.Duration) {
	var calls []convCall
	n := convCallSize(e)
	start := time.Now()
	for k := 0; time.Since(start) < dur; k++ {
		first := (k * n) % len(in)
		t0 := time.Now()
		labels, err := eng.ClassifyBatch(e.ctx, in[first:first+n])
		calls = append(calls, convCall{first: first, labels: labels, err: err, ms: ms(time.Since(t0))})
	}
	return calls, time.Since(start)
}

// convReference is the dense-kernel engine's output counts per input:
// the bit-identical reference the measured (auto-path) engine must match.
func convReference(e *env, m fpsa.Model, w map[string][][]float64, in [][]float64) ([][]int, error) {
	dense, err := convEngine(e, m, w, fpsa.WithSpikePath(fpsa.SpikeDense))
	if err != nil {
		return nil, err
	}
	defer dense.Close()
	out := make([][]int, len(in))
	for i, v := range in {
		if out[i], err = dense.Outputs(e.ctx, v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkConv verifies every measured label against the dense reference,
// the measured engine's raw counts on a seeded subset, and that the
// network is live.
func checkConv(e *env, o *outcomeSet, eng *fpsa.Engine, in [][]float64, ref [][]int, calls []convCall) error {
	for _, c := range calls {
		o.attempted++
		if c.err != nil {
			o.failed++
			continue
		}
		for j, got := range c.labels {
			if want := synth.Argmax(ref[c.first+j]); got != want {
				o.mismatch("conv-batch: input %d labelled %d, dense engine says %d", c.first+j, got, want)
			}
		}
	}
	live := false
	for _, i := range rand.New(rand.NewSource(e.seed)).Perm(len(in))[:32] {
		got, err := eng.Outputs(e.ctx, in[i])
		if err != nil {
			return err
		}
		if fmt.Sprint(got) != fmt.Sprint(ref[i]) {
			o.mismatch("conv-batch: input %d counts %v, dense engine %v", i, got, ref[i])
		}
		for _, c := range got {
			live = live || c != 0
		}
	}
	if !live {
		o.mismatch("conv-batch: every output count on the checked subset is zero")
	}
	return nil
}

func runConvBatch(e *env) (*outcomeSet, error) {
	o := &outcomeSet{}
	m, w, err := convModel()
	if err != nil {
		return nil, err
	}
	setup, err := medianSetup(func() (time.Duration, error) {
		t0 := time.Now()
		eng, err := convEngine(e, m, w)
		if err != nil {
			return 0, err
		}
		d := time.Since(t0)
		return d, eng.Close()
	})
	if err != nil {
		return nil, err
	}
	in := convInputs(e)
	eng, err := convEngine(e, m, w)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	convScore(e, eng, in, e.window/20) // warm-up
	calls, elapsed := convScore(e, eng, in, e.window)
	var lat []float64
	samples := 0
	for _, c := range calls {
		if c.err == nil {
			lat = append(lat, c.ms)
			samples += len(c.labels)
		}
	}
	e.log("conv-batch: %d calls of %d, %d samples in %.2f s", len(calls), convCallSize(e), samples, elapsed.Seconds())
	ref, err := convReference(e, m, w, in)
	if err != nil {
		return nil, err
	}
	if err := checkConv(e, o, eng, in, ref, calls); err != nil {
		return nil, err
	}
	g := &guards{}
	if err := g.placed(e.ctx, m, fpsa.WithWeights(w)); err != nil {
		return nil, err
	}
	s := sortedCopy(lat)
	o.set("setup_s", "s", setup)
	o.set("latency_p50_ms", "ms", percentile(s, 0.5))
	o.set("throughput_per_s", "1/s", float64(samples)/elapsed.Seconds())
	o.set("success_rate", "fraction", 1-float64(o.failed)/float64(o.attempted))
	g.report(o)
	return o, nil
}

// inProcessSetups is how often conv-batch repeats its
// (millisecond-scale) set-up for the median.
const inProcessSetups = 51

// medianSetup runs an in-process set-up once to warm up, then
// inProcessSetups times, and returns the median in seconds. Each
// repetition starts from a collected heap, so no repetition pays for an
// earlier one's garbage.
func medianSetup(f func() (time.Duration, error)) (float64, error) {
	var v []float64
	for i := 0; i <= inProcessSetups; i++ {
		runtime.GC()
		d, err := f()
		if err != nil {
			return 0, err
		}
		if i > 0 {
			v = append(v, d.Seconds())
		}
	}
	return median(v), nil
}
