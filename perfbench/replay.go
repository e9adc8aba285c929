package main

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"time"

	"fpsa"
	"fpsa/internal/bitstream"
	"fpsa/internal/cgraph"
	"fpsa/internal/coreop"
	"fpsa/internal/device"
	"fpsa/internal/fabric"
	"fpsa/internal/mapper"
	"fpsa/internal/models"
	"fpsa/internal/netlist"
	"fpsa/internal/perf"
	"fpsa/internal/place"
	"fpsa/internal/route"
	"fpsa/internal/synth"
	"fpsa/internal/trainer"
)

// The traced run. Each workload runs a shortened version of its
// untraced measurement through the same public surfaces, then replays
// the work through the exported functions of the internal layers, in the
// order the root package and fpsa-serve call them, with a span around
// every layer call. The replay must reproduce the public run's outputs
// (and, for the compiler, its PRStats) exactly, or it would measure a
// different program.

// per-layer metric declarations: name, unit, direction, and the
// end-to-end metric and workload each should move.
func pl(name, unit, better, moves string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, About: "moves " + moves}
}

var perLayer = []metricDef{
	pl("serve-http.http.client_p99_ms", "ms", "lower", "nothing: the client-observed tail, recorded without a bound (too unsteady on a shared host)"),
	pl("serve-http.http.overhead_p50_ms", "ms", "lower", "latency_p50_ms on serve-http: client p50 at the reference rate minus the engine p50 of /v1/stats (warm-up and reference)"),
	pl("serve-http.loadgen.late_max_ms", "ms", "lower", "nothing: generator health (latest send behind schedule)"),
	pl("serve-http.serve.engine_p50_ms", "ms", "lower", "latency_p50_ms on serve-http"),
	pl("serve-http.serve.engine_p99_ms", "ms", "lower", "serve-http.http.client_p99_ms and throughput_per_s on serve-http"),
	pl("serve-http.serve.mean_exec_batch", "items", "higher", "throughput_per_s (capacity) on serve-http"),
	pl("serve-http.serve.wait_ms", "ms", "lower", "latency_p50_ms on serve-http: engine p50 minus executor time at the observed batch"),
	pl("serve-http.synth.exec_ms.b1", "ms", "lower", "latency_p50_ms on serve-http"),
	pl("serve-http.synth.exec_ms.b2", "ms", "lower", "latency_p50_ms on serve-http"),
	pl("serve-http.synth.program_ms", "ms", "lower", "setup_s on serve-http (NewExecutor)"),
	pl("serve-http.synth.compile_ms", "ms", "lower", "setup_s on serve-http"),
	pl("serve-http.trainer.train_ms", "ms", "lower", "setup_s on serve-http"),
	pl("serve-http.xbar.kernel_calls_per_sample", "calls", "lower", "latency_p50_ms on serve-http"),
	pl("serve-http.xbar.sparse_share", "fraction", "higher", "latency_p50_ms on serve-http"),
	pl("serve-http.xbar.spike_density", "fraction", "lower", "latency_p50_ms on serve-http"),
	pl("serve-http.trace.spans", "count", "lower", "nothing: spans recorded"),

	pl("conv-batch.serve.mean_exec_batch", "items", "higher", "throughput_per_s on conv-batch"),
	pl("conv-batch.serve.overhead_share", "fraction", "lower", "throughput_per_s on conv-batch: 1 - executor time / engine wall time (predicted ~0)"),
	pl("conv-batch.synth.exec_ms_per_sample.b1", "ms", "lower", "throughput_per_s on conv-batch"),
	pl("conv-batch.synth.exec_ms_per_sample.b16", "ms", "lower", "throughput_per_s on conv-batch"),
	pl("conv-batch.synth.program_ms", "ms", "lower", "setup_s on conv-batch (NewExecutor)"),
	pl("conv-batch.synth.compile_ms", "ms", "lower", "setup_s on conv-batch"),
	pl("conv-batch.xbar.kernel_calls_per_sample", "calls", "lower", "throughput_per_s on conv-batch"),
	pl("conv-batch.xbar.sparse_share", "fraction", "higher", "throughput_per_s on conv-batch"),
	pl("conv-batch.xbar.spike_density", "fraction", "lower", "throughput_per_s on conv-batch"),
	pl("conv-batch.trace.spans", "count", "lower", "nothing: spans recorded"),

	pl("compile-pnr.compile_s", "s", "lower", "latency_p50_ms and throughput_per_s on compile-pnr: every job but autotune, once each"),
	pl("compile-pnr.autotune_s", "s", "lower", "throughput_per_s on compile-pnr"),
	pl("compile-pnr.synth.synthesize_ms", "ms", "lower", "latency_p50_ms on compile-pnr"),
	pl("compile-pnr.coreop.groups", "count", "lower", "latency_p50_ms on compile-pnr"),
	pl("compile-pnr.mapper.allocate_ms", "ms", "lower", "latency_p50_ms on compile-pnr"),
	pl("compile-pnr.mapper.netlist_ms", "ms", "lower", "latency_p50_ms on compile-pnr"),
	pl("compile-pnr.netlist.blocks", "count", "lower", "latency_p50_ms on compile-pnr"),
	pl("compile-pnr.netlist.nets", "count", "lower", "latency_p50_ms on compile-pnr"),
	pl("compile-pnr.place.ms", "ms", "lower", "latency_p50_ms and wirelength_cost on compile-pnr"),
	pl("compile-pnr.place.moves", "count", "lower", "latency_p50_ms and wirelength_cost on compile-pnr"),
	pl("compile-pnr.route.ms", "ms", "lower", "latency_p50_ms and routed_mean_hops on compile-pnr"),
	pl("compile-pnr.route.iterations", "count", "lower", "latency_p50_ms and routed_mean_hops on compile-pnr"),
	pl("compile-pnr.route.max_occupancy", "tracks", "lower", "routed_mean_hops on compile-pnr"),
	pl("compile-pnr.bitstream.generate_ms", "ms", "lower", "latency_p50_ms on compile-pnr"),
	pl("compile-pnr.bitstream.verify_ms", "ms", "lower", "latency_p50_ms on compile-pnr"),
	pl("compile-pnr.perf.evaluate_ms", "ms", "lower", "latency_p50_ms (zoo jobs) and throughput_per_s (autotune) on compile-pnr"),
	pl("compile-pnr.autotune.evaluated", "count", "lower", "throughput_per_s on compile-pnr"),
	pl("compile-pnr.autotune.pruned", "count", "higher", "throughput_per_s on compile-pnr"),
	pl("compile-pnr.autotune.cache_hits", "count", "higher", "throughput_per_s on compile-pnr"),
	pl("compile-pnr.autotune.ms_per_candidate", "ms", "lower", "throughput_per_s on compile-pnr"),
	pl("compile-pnr.autotune.gain_pct", "%", "higher", "nothing: summed objective gain of the two tunes (deterministic guard)"),
	pl("compile-pnr.trace.overhead_ms", "ms", "lower", "nothing: traced minus untraced replay of MLP-500-100 and LeNet"),
	pl("compile-pnr.trace.spans", "count", "lower", "nothing: spans recorded"),

	pl("fleet-http.http.client_p99_ms", "ms", "lower", "nothing: the client-observed tail, recorded without a bound (too unsteady on a shared host)"),
	pl("fleet-http.http.overhead_p50_ms", "ms", "lower", "latency_p50_ms on fleet-http: client p50 minus the mean of the models' p50 in /fleetz"),
	pl("fleet-http.loadgen.late_max_ms", "ms", "lower", "nothing: generator health"),
	pl("fleet-http.fleet.a.p50_ms", "ms", "lower", "latency_p50_ms on fleet-http"),
	pl("fleet-http.fleet.a.p99_ms", "ms", "lower", "fleet-http.http.client_p99_ms"),
	pl("fleet-http.fleet.b.p50_ms", "ms", "lower", "latency_p50_ms on fleet-http"),
	pl("fleet-http.fleet.b.p99_ms", "ms", "lower", "fleet-http.http.client_p99_ms"),
	pl("fleet-http.fleet.shed", "count", "lower", "success_rate on fleet-http"),
	pl("fleet-http.fleet.swap_client_ms", "ms", "lower", "fleet-http.http.client_p99_ms: client-observed /v1/swap time, which holds a connection"),
	pl("fleet-http.fleet.swap_flip_ms", "ms", "lower", "fleet-http.http.client_p99_ms (FleetSwapEvent.DurationMS)"),
	pl("fleet-http.fleet.replicas_max", "count", "lower", "latency_p50_ms and fleet-http.http.client_p99_ms"),
	pl("fleet-http.fleet.scale_ups", "count", "lower", "latency_p50_ms and fleet-http.http.client_p99_ms"),
	pl("fleet-http.trainer.train_ms", "ms", "lower", "setup_s on fleet-http and swap time (fleet-http.fleet.swap_client_ms)"),
	pl("fleet-http.compilecache.hits", "count", "higher", "swap time (fleet-http.fleet.swap_client_ms): in-process swap replay"),
	pl("fleet-http.compilecache.misses", "count", "lower", "swap time (fleet-http.fleet.swap_client_ms): in-process swap replay"),
	pl("fleet-http.trace.spans", "count", "lower", "nothing: spans recorded"),
}

// selfMS is the summed self time of every span with the given name.
func selfMS(spans []span, name string) float64 { return ms(selfByName(spans)[name]) }

// medianSpanMS is the median duration of the spans with the given name.
func medianSpanMS(spans []span, name string) float64 {
	var v []float64
	for _, s := range spans {
		if s.Name == name {
			v = append(v, ms(s.dur()))
		}
	}
	return median(v)
}

// replayMLP trains and synthesizes an fpsa-serve MLP through the trainer
// and synth layers, as TrainMLP and Deployment.NewNet do, and programs
// an executor as a serve worker does.
func replayMLP(tr *tracer, root int, req string, dataSeed, seed int64, layers []int) (*trainer.MLP, *synth.Executor, *synth.Program, error) {
	ds := trainer.SyntheticClusters(rand.New(rand.NewSource(dataSeed)), 900, layers[0], layers[len(layers)-1], 0.08)
	train, _ := ds.Split(2.0 / 3)
	var net *trainer.MLP
	var err error
	tr.do(root, req, "trainer.train", func() {
		rng := rand.New(rand.NewSource(seed))
		if net, err = trainer.NewMLP(rng, layers); err == nil {
			net.Train(rng, train, trainer.TrainOptions{Epochs: serveEpochs})
		}
	})
	if err != nil {
		return nil, nil, nil, err
	}
	var prog *synth.Program
	tr.do(root, req, "synth.compile", func() {
		opts := synth.DefaultOptions()
		opts.Weights = net.WeightSource()
		_, prog, err = synth.Compile(net.Graph("deployed-mlp"), opts)
	})
	if err != nil {
		return nil, nil, nil, err
	}
	var ex *synth.Executor
	tr.do(root, req, "synth.program", func() {
		ex, err = synth.NewExecutor(prog, synth.RunOptions{Mode: synth.ModeSpiking})
	})
	return net, ex, prog, err
}

func quantize(prog *synth.Program, vecs [][]float64) [][]int {
	out := make([][]int, len(vecs))
	for i, v := range vecs {
		out[i] = synth.QuantizeInput(v, prog.Params.SamplingWindow())
	}
	return out
}

func traceServeHTTP(e *env, tr *tracer) (*outcomeSet, error) {
	o := &outcomeSet{}
	srv, _, err := startServer(e.ctx, e.serveBin)
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	_, vecs, want, err := serveInputs(e, rand.New(rand.NewSource(e.seed)))
	if err != nil {
		return nil, err
	}
	r, err := measureServe(e, o, srv, vecs, want, e.window*3/10, 0)
	if err != nil {
		return nil, err
	}
	err = srv.stop()
	srv = nil
	if err != nil {
		return nil, err
	}

	root, end := tr.begin(0, "serve-http", "replay")
	_, ex, prog, err := replayMLP(tr, root, "serve-http", serveSeed, serveSeed, serveLayers)
	if err != nil {
		return nil, err
	}
	ins := quantize(prog, vecs)
	for i, in := range ins {
		var out [][]int
		tr.do(root, fmt.Sprintf("vec%d", i), "synth.exec.b1", func() { out, err = ex.RunBatch([][]int{in}) })
		if err != nil {
			return nil, err
		}
		if got := synth.Argmax(out[0]); got != want[i] {
			o.mismatch("serve-http replay: vector %d class %d, served %d", i, got, want[i])
		}
	}
	for i := 0; i+1 < len(ins); i += 2 {
		tr.do(root, fmt.Sprintf("vec%d", i), "synth.exec.b2", func() { _, err = ex.RunBatch(ins[i : i+2]) })
		if err != nil {
			return nil, err
		}
	}
	end()
	spans := tr.snapshot()
	b1, b2 := medianSpanMS(spans, "synth.exec.b1"), medianSpanMS(spans, "synth.exec.b2")
	st := r.stats
	engP50 := st.P50LatencyUS / 1e3
	// Executor time at the observed mean batch, linear in batch size
	// through the b1 and b2 measurements.
	execAtBatch := b1 + (b2-b1)*(st.MeanExecBatch-1)
	kernels := float64(st.SparseKernels + st.DenseKernels)
	p := "serve-http."
	o.set(p+"http.client_p99_ms", "ms", r.ref.P99MS)
	o.set(p+"http.overhead_p50_ms", "ms", r.ref.P50MS-engP50)
	o.set(p+"loadgen.late_max_ms", "ms", r.ref.LateMaxMS)
	o.set(p+"serve.engine_p50_ms", "ms", engP50)
	o.set(p+"serve.engine_p99_ms", "ms", st.P99LatencyUS/1e3)
	o.set(p+"serve.mean_exec_batch", "items", st.MeanExecBatch)
	o.set(p+"serve.wait_ms", "ms", engP50-execAtBatch)
	o.set(p+"synth.exec_ms.b1", "ms", b1)
	o.set(p+"synth.exec_ms.b2", "ms", b2)
	o.set(p+"synth.program_ms", "ms", selfMS(spans, "synth.program"))
	o.set(p+"synth.compile_ms", "ms", selfMS(spans, "synth.compile"))
	o.set(p+"trainer.train_ms", "ms", selfMS(spans, "trainer.train"))
	o.set(p+"xbar.kernel_calls_per_sample", "calls", kernels/float64(st.Requests))
	o.set(p+"xbar.sparse_share", "fraction", float64(st.SparseKernels)/kernels)
	o.set(p+"xbar.spike_density", "fraction", st.SpikeDensity)
	return o, nil
}

func traceConvBatch(e *env, tr *tracer) (*outcomeSet, error) {
	o := &outcomeSet{}
	m, w, err := convModel()
	if err != nil {
		return nil, err
	}
	in := convInputs(e)
	eng, err := convEngine(e, m, w)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	calls, elapsed := convScore(e, eng, in, e.window/5)
	samples := 0
	for _, c := range calls {
		samples += len(c.labels)
	}
	st := eng.Stats()

	root, end := tr.begin(0, "conv-batch", "replay")
	g, err := convGraph()
	if err != nil {
		return nil, err
	}
	var prog *synth.Program
	tr.do(root, "conv-batch", "synth.compile", func() {
		opts := synth.DefaultOptions()
		opts.Weights = func(layer string) [][]float64 { return w[layer] }
		_, prog, err = synth.Compile(g, opts)
	})
	if err != nil {
		return nil, err
	}
	newEx := func() (ex *synth.Executor) {
		tr.do(root, "conv-batch", "synth.program", func() {
			ex, err = synth.NewExecutor(prog, synth.RunOptions{Mode: synth.ModeSpiking})
		})
		return ex
	}
	ex1 := newEx()
	if err != nil {
		return nil, err
	}
	ex16 := newEx()
	if err != nil {
		return nil, err
	}
	const n = 4 * convBatch
	ins := quantize(prog, in[:n])
	outs := make([][]int, n)
	for i := range ins {
		var out [][]int
		tr.do(root, fmt.Sprintf("in%d", i), "synth.exec.b1", func() { out, err = ex1.RunBatch(ins[i : i+1]) })
		if err != nil {
			return nil, err
		}
		outs[i] = out[0]
	}
	for i := 0; i < n; i += convBatch {
		var out [][]int
		tr.do(root, fmt.Sprintf("in%d", i), "synth.exec.b16", func() { out, err = ex16.RunBatch(ins[i : i+convBatch]) })
		if err != nil {
			return nil, err
		}
		for j, got := range out {
			if !slices.Equal(got, outs[i+j]) {
				o.mismatch("conv-batch replay: input %d counts %v at batch 16, %v at batch 1", i+j, got, outs[i+j])
			}
		}
	}
	for i := range ins {
		got, err := eng.Outputs(e.ctx, in[i])
		if err != nil {
			return nil, err
		}
		if !slices.Equal(got, outs[i]) {
			o.mismatch("conv-batch replay: input %d counts %v, engine %v", i, outs[i], got)
		}
	}
	end()
	spans := tr.snapshot()
	perSample16 := medianSpanMS(spans, "synth.exec.b16") / convBatch
	ks := ex16.KernelStats()
	kernels := float64(ks.SparseBatches + ks.DenseBatches)
	p := "conv-batch."
	o.set(p+"serve.mean_exec_batch", "items", st.MeanExecBatch)
	o.set(p+"serve.overhead_share", "fraction", 1-float64(samples)*perSample16/(ms(elapsed)*float64(st.Workers)))
	o.set(p+"synth.exec_ms_per_sample.b1", "ms", medianSpanMS(spans, "synth.exec.b1"))
	o.set(p+"synth.exec_ms_per_sample.b16", "ms", perSample16)
	o.set(p+"synth.program_ms", "ms", selfMS(spans, "synth.program")/2)
	o.set(p+"synth.compile_ms", "ms", selfMS(spans, "synth.compile"))
	o.set(p+"xbar.kernel_calls_per_sample", "calls", kernels/n)
	o.set(p+"xbar.sparse_share", "fraction", float64(ks.SparseBatches)/kernels)
	o.set(p+"xbar.spike_density", "fraction", ks.Density())
	return o, nil
}

// pnrReplay is what one model's replayed compile produced.
type pnrReplay struct {
	stats  fpsa.PRStats
	cells  int
	groups int
	blocks int
	nets   int
	perf   perf.Report
}

// replayCompile runs one model through the compiler layers the way
// Compile, PlaceAndRoute, Bitstream and PerformanceWithHops call them at
// default options (duplication 1, seed 0, one placement seed, no faults,
// default tracks). place is false for the zoo models that are only
// compiled and evaluated with the calibrated hop estimate.
func replayCompile(ctx context.Context, tr *tracer, g *cgraph.Graph, doPnR bool) (*pnrReplay, error) {
	req := g.Name
	root, end := tr.begin(0, req, "compile")
	defer end()
	params := device.Params45nm
	var err error
	var co *coreop.Graph
	tr.do(root, req, "synth.synthesize", func() { co, err = synth.Synthesize(g, synth.Options{Params: params}) })
	if err != nil {
		return nil, err
	}
	var alloc mapper.Allocation
	tr.do(root, req, "mapper.allocate", func() { alloc, err = mapper.AllocateAssigned(co, 1, nil) })
	if err != nil {
		return nil, err
	}
	var nl *netlist.Netlist
	tr.do(root, req, "mapper.netlist", func() { nl, err = mapper.BuildNetlistFaulted(co, alloc, params, nil, nil, 0) })
	if err != nil {
		return nil, err
	}
	r := &pnrReplay{groups: len(co.Groups), blocks: len(nl.Blocks), nets: len(nl.Nets)}
	hops := 0
	if doPnR {
		var chip fabric.Chip
		tr.do(root, req, "fabric.size", func() { chip, err = fabric.SizeFor(len(nl.Blocks), 0, params) })
		if err != nil {
			return nil, err
		}
		var pl *place.Placement
		var ps place.PortfolioStats
		tr.do(root, req, "place", func() { pl, ps, err = place.Portfolio(ctx, nl, chip, 1, place.PortfolioOptions{Runs: 1}) })
		if err != nil {
			return nil, err
		}
		var res *route.Result
		tr.do(root, req, "route", func() { res, err = route.Route(ctx, nl, pl, chip, route.Options{}) })
		if err != nil {
			return nil, err
		}
		var cfg *bitstream.Config
		tr.do(root, req, "bitstream.generate", func() { cfg, err = bitstream.Generate(nl, pl, res, chip) })
		if err != nil {
			return nil, err
		}
		tr.do(root, req, "bitstream.verify", func() { err = cfg.Verify(nl) })
		if err != nil {
			return nil, err
		}
		r.cells = cfg.CellCount()
		r.stats = fpsa.PRStats{
			ChipSide:       chip.W,
			Converged:      res.Converged,
			Iterations:     res.Iterations,
			MeanHops:       res.MeanHops(),
			MaxHops:        res.MaxHops(),
			ChannelsNeeded: res.MaxOccupancy,
			PlacementMoves: ps.TotalMoves,
			WirelengthCost: ps.Best().FinalCost,
			Restarts:       len(ps.Runs),
			Chips:          1,
		}
		hops = int(r.stats.MeanHops + 0.5)
	}
	tr.do(root, req, "perf.evaluate", func() {
		r.perf, err = perf.Evaluate(perf.Input{Model: g, CoreOps: co, Params: params, Dup: 1, Assign: alloc.Dup, Hops: hops}, perf.TargetFPSA)
	})
	return r, err
}

func traceCompilePnR(e *env, tr *tracer) (*outcomeSet, error) {
	o := &outcomeSet{}
	// The public path, untraced: the reference the replay must reproduce.
	type public struct {
		stats fpsa.PRStats
		cells int
		perf  fpsa.PerfSummary
	}
	pub := map[string]public{}
	var compileS, tuneS float64
	for _, name := range append(slices.Clone(pnrModels), perfOnlyModels...) {
		t0 := time.Now()
		m, err := fpsa.LoadBenchmark(name)
		if err != nil {
			return nil, err
		}
		d, err := fpsa.Compile(e.ctx, m)
		if err != nil {
			return nil, err
		}
		var p public
		if slices.Contains(pnrModels, name) {
			if p.stats, err = d.PlaceAndRoute(e.ctx); err != nil {
				return nil, err
			}
			bs, err := d.Bitstream(e.ctx)
			if err != nil {
				return nil, err
			}
			p.cells = bs.ProgrammedCells
			p.perf, err = d.PerformanceWithHops(int(p.stats.MeanHops + 0.5))
			if err != nil {
				return nil, err
			}
		} else if p.perf, err = d.Performance(); err != nil {
			return nil, err
		}
		compileS += time.Since(t0).Seconds()
		pub[name] = p
	}
	var evaluated, pruned, hits int
	var gain float64
	for _, obj := range tuneObjectives {
		m, err := fpsa.LoadBenchmark(shardedModel)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		_, rep, err := fpsa.Autotune(e.ctx, m, obj, fpsa.WithPEBudget(tunePEBudget))
		if err != nil {
			return nil, err
		}
		tuneS += time.Since(t0).Seconds()
		evaluated += rep.Evaluated
		pruned += rep.Pruned
		hits += int(rep.CacheHits)
		gain += 100 * rep.Improvement
	}

	// Untraced replay of the two cheap placed models, for the overhead.
	replayAll := func(tr *tracer, names []string) (map[string]*pnrReplay, time.Duration, error) {
		out := map[string]*pnrReplay{}
		t0 := time.Now()
		for _, name := range names {
			g, err := models.ByName(name)
			if err != nil {
				return nil, 0, err
			}
			if out[name], err = replayCompile(e.ctx, tr, g, slices.Contains(pnrModels, name)); err != nil {
				return nil, 0, fmt.Errorf("replay %s: %w", name, err)
			}
		}
		return out, time.Since(t0), nil
	}
	cheap := pnrModels[:2]
	_, untraced, err := replayAll(nil, cheap)
	if err != nil {
		return nil, err
	}
	reps, traced, err := replayAll(tr, cheap)
	if err != nil {
		return nil, err
	}
	rest, _, err := replayAll(tr, append(slices.Clone(pnrModels[2:]), perfOnlyModels...))
	if err != nil {
		return nil, err
	}
	maps.Copy(reps, rest)
	var groups, blocks, nets, moves, iters, occ int
	for name, r := range reps {
		p := pub[name]
		if slices.Contains(pnrModels, name) {
			if r.stats != p.stats {
				o.mismatch("compile-pnr replay: %s PRStats %+v, public %+v", name, r.stats, p.stats)
			}
			if r.cells != p.cells {
				o.mismatch("compile-pnr replay: %s bitstream cells %d, public %d", name, r.cells, p.cells)
			}
			moves += r.stats.PlacementMoves
			iters += r.stats.Iterations
			occ = max(occ, r.stats.ChannelsNeeded)
		}
		if r.perf.LatencyUS != p.perf.LatencyUS || r.perf.Energy.TotalUJ() != p.perf.EnergyUJ {
			o.mismatch("compile-pnr replay: %s perf %.6g us / %.6g uJ, public %.6g us / %.6g uJ",
				name, r.perf.LatencyUS, r.perf.Energy.TotalUJ(), p.perf.LatencyUS, p.perf.EnergyUJ)
		}
		groups += r.groups
		blocks += r.blocks
		nets += r.nets
	}
	spans := tr.snapshot()
	p := "compile-pnr."
	o.set(p+"compile_s", "s", compileS)
	o.set(p+"autotune_s", "s", tuneS)
	o.set(p+"synth.synthesize_ms", "ms", selfMS(spans, "synth.synthesize"))
	o.set(p+"coreop.groups", "count", float64(groups))
	o.set(p+"mapper.allocate_ms", "ms", selfMS(spans, "mapper.allocate"))
	o.set(p+"mapper.netlist_ms", "ms", selfMS(spans, "mapper.netlist"))
	o.set(p+"netlist.blocks", "count", float64(blocks))
	o.set(p+"netlist.nets", "count", float64(nets))
	o.set(p+"place.ms", "ms", selfMS(spans, "place"))
	o.set(p+"place.moves", "count", float64(moves))
	o.set(p+"route.ms", "ms", selfMS(spans, "route"))
	o.set(p+"route.iterations", "count", float64(iters))
	o.set(p+"route.max_occupancy", "tracks", float64(occ))
	o.set(p+"bitstream.generate_ms", "ms", selfMS(spans, "bitstream.generate"))
	o.set(p+"bitstream.verify_ms", "ms", selfMS(spans, "bitstream.verify"))
	o.set(p+"perf.evaluate_ms", "ms", selfMS(spans, "perf.evaluate"))
	o.set(p+"autotune.evaluated", "count", float64(evaluated))
	o.set(p+"autotune.pruned", "count", float64(pruned))
	o.set(p+"autotune.cache_hits", "count", float64(hits))
	o.set(p+"autotune.ms_per_candidate", "ms", 1e3*tuneS/float64(evaluated))
	o.set(p+"autotune.gain_pct", "%", gain)
	o.set(p+"trace.overhead_ms", "ms", ms(traced-untraced))
	return o, nil
}

func traceFleetHTTP(e *env, tr *tracer) (*outcomeSet, error) {
	o := &outcomeSet{}
	cfg, err := writeFleetConfig(e)
	if err != nil {
		return nil, err
	}
	srv, _, err := startServer(e.ctx, e.serveBin, "-fleet", cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	vecs := fleetVectors(e)
	run, err := measureFleet(e, o, srv, vecs, e.window*6/10)
	if err != nil {
		return nil, err
	}
	err = srv.stop()
	srv = nil
	if err != nil {
		return nil, err
	}
	if err := checkFleet(e, o, run, vecs); err != nil {
		return nil, err
	}
	var swap *fleetReq
	for _, r := range run.reqs {
		if r.model < 0 {
			swap = r
			break
		}
	}
	if swap == nil {
		return nil, fmt.Errorf("fleet-http trace: the phase sent no swap")
	}

	// Replay the swap in process: the trainer layer for the new weights,
	// then a fleet with a compile cache, swapped to the same seed.
	spec := fleetModels[0]
	root, end := tr.begin(0, "swap", "replay")
	net, _, _, err := replayMLP(tr, root, "swap", spec.seed, swap.swapSeed, spec.layers)
	if err != nil {
		return nil, err
	}
	pub, _, err := trainServed(spec.seed, swap.swapSeed, spec.layers)
	if err != nil {
		return nil, err
	}
	for k, v := range vecs[0] {
		if a, b := net.Predict(v), pub.Predict(v); a != b {
			o.mismatch("fleet-http replay: trainer predicts %d for vector %d, TrainMLP %d", a, k, b)
		}
	}
	cache := fpsa.NewCompileCache(0)
	f, err := fpsa.NewFleet(fpsa.WithFleetChips(fleetChips), fpsa.WithFleetCache(cache))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	v1, _, err := trainServed(spec.seed, spec.seed, spec.layers)
	if err != nil {
		return nil, err
	}
	d, err := fpsa.Compile(e.ctx, v1.Model(), fpsa.WithWeightSource(v1.WeightSource()), fpsa.WithSeed(spec.seed), fpsa.WithCache(cache))
	if err != nil {
		return nil, err
	}
	if err := f.AddModel(e.ctx, spec.name, d); err != nil {
		return nil, err
	}
	h0, m0 := cache.Counters()
	tr.do(root, "swap", "fleet.compile_and_swap", func() {
		_, _, err = f.CompileAndSwap(e.ctx, spec.name, pub.Model(), fpsa.WithWeightSource(pub.WeightSource()), fpsa.WithSeed(swap.swapSeed))
	})
	if err != nil {
		return nil, err
	}
	h1, m1 := cache.Counters()
	for i, r := range run.reqs {
		if r.model != 0 || run.outs[i].err != nil || r.version != swap.swap.ToVersion {
			continue
		}
		c, _, err := f.Classify(e.ctx, spec.name, fleetBulkTenant, vecs[0][r.vec])
		if err != nil {
			return nil, err
		}
		if c != r.class {
			o.mismatch("fleet-http replay: swapped model classifies vector %d as %d, server said %d", r.vec, c, r.class)
		}
	}
	end()
	spans := tr.snapshot()
	var modelP50, shed, scaleUps float64
	for _, m := range run.stats.Models {
		modelP50 += m.P50LatencyUS / 1e3 / float64(len(run.stats.Models))
		shed += float64(m.ShedOverload + m.ShedQuota)
		scaleUps += float64(m.ScaleUps)
	}
	var flip []float64
	for _, s := range run.stats.Swaps {
		flip = append(flip, s.DurationMS)
	}
	p := "fleet-http."
	o.set(p+"http.client_p99_ms", "ms", run.classify.P99MS)
	o.set(p+"http.overhead_p50_ms", "ms", run.classify.P50MS-modelP50)
	o.set(p+"loadgen.late_max_ms", "ms", run.classify.LateMaxMS)
	for _, m := range fleetModels {
		st := run.stats.Models[m.name]
		o.set(p+"fleet."+m.name+".p50_ms", "ms", st.P50LatencyUS/1e3)
		o.set(p+"fleet."+m.name+".p99_ms", "ms", st.P99LatencyUS/1e3)
	}
	o.set(p+"fleet.shed", "count", shed)
	o.set(p+"fleet.swap_client_ms", "ms", median(run.swapMS))
	o.set(p+"fleet.swap_flip_ms", "ms", median(flip))
	o.set(p+"fleet.replicas_max", "count", float64(run.maxRepl))
	o.set(p+"fleet.scale_ups", "count", scaleUps)
	o.set(p+"trainer.train_ms", "ms", selfMS(spans, "trainer.train"))
	o.set(p+"compilecache.hits", "count", float64(h1-h0))
	o.set(p+"compilecache.misses", "count", float64(m1-m0))
	return o, nil
}
