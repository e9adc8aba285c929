package main

import (
	"cmp"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"fpsa"
)

// The fleet-http workload runs fpsa-serve -fleet with two models on a
// 16-chip pool and two tenants. Classify requests alternate between the
// models, one in three from the gold tenant, Poisson at fleetRate; the
// same open-loop schedule carries a hot-swap of model "a" every
// fleetSwapEvery, each to a freshly seeded retrain.
const (
	fleetRate       = 400.0
	fleetSwapEvery  = 5 * time.Second
	fleetPool       = 128 // distinct request vectors per model
	fleetChips      = 16
	fleetGoldTenant = "gold"
	fleetBulkTenant = "bulk"
)

type fleetModelSpec struct {
	name   string
	seed   int64
	layers []int
}

var fleetModels = []fleetModelSpec{
	{"a", 3, []int{16, 24, 4}},
	{"b", 5, []int{32, 48, 8}},
}

// writeFleetConfig writes the -fleet JSON config and returns its path.
func writeFleetConfig(e *env) (string, error) {
	type model struct {
		Name        string `json:"name"`
		Seed        int64  `json:"seed"`
		Layers      []int  `json:"layers"`
		MinReplicas int    `json:"min_replicas"`
		MaxReplicas int    `json:"max_replicas"`
	}
	cfg := map[string]any{
		"chips": fleetChips,
		"tenants": []map[string]string{
			{"name": fleetGoldTenant, "class": "gold"},
			{"name": fleetBulkTenant, "class": "batch"},
		},
	}
	var ms []model
	for _, m := range fleetModels {
		ms = append(ms, model{m.name, m.seed, m.layers, 1, 4})
	}
	cfg["models"] = ms
	raw, err := json.Marshal(cfg)
	if err != nil {
		return "", err
	}
	path := filepath.Join(e.workDir, "fleet.json")
	return path, os.WriteFile(path, raw, 0o644)
}

// fleetReq is one scheduled request: a classify (model ≥ 0) or a swap.
type fleetReq struct {
	model int // index into fleetModels; -1 = swap of model "a"
	vec   int
	body  []byte
	// filled by the run
	class, version int
	swapMS         float64
	swapSeed       int64
	swap           fpsa.FleetSwapEvent
}

// fleetSchedule lays out one open-loop phase: Poisson classify arrivals
// plus a swap at the middle of every fleetSwapEvery slice.
func fleetSchedule(rng *rand.Rand, dur time.Duration, vecs [][][]float64, swapSeed func(k int) int64) ([]time.Duration, []*fleetReq) {
	type item struct {
		at  time.Duration
		req *fleetReq
	}
	var items []item
	for i, at := range poissonSchedule(rng, fleetRate, dur) {
		mi := i % len(fleetModels)
		tenant := fleetBulkTenant
		if i%3 == 0 {
			tenant = fleetGoldTenant
		}
		r := &fleetReq{model: mi, vec: rng.Intn(len(vecs[mi]))}
		r.body, _ = json.Marshal(map[string]any{"model": fleetModels[mi].name, "tenant": tenant, "features": vecs[mi][r.vec]})
		items = append(items, item{at, r})
	}
	for k := 0; time.Duration(k)*fleetSwapEvery+fleetSwapEvery/2 < dur; k++ {
		r := &fleetReq{model: -1, swapSeed: swapSeed(k)}
		r.body, _ = json.Marshal(map[string]any{"model": fleetModels[0].name, "seed": r.swapSeed})
		items = append(items, item{time.Duration(k)*fleetSwapEvery + fleetSwapEvery/2, r})
	}
	slices.SortStableFunc(items, func(a, b item) int { return cmp.Compare(a.at, b.at) })
	sched := make([]time.Duration, len(items))
	reqs := make([]*fleetReq, len(items))
	for i, it := range items {
		sched[i], reqs[i] = it.at, it.req
	}
	return sched, reqs
}

// fleetRun is one measured fleet phase.
type fleetRun struct {
	classify phase
	reqs     []*fleetReq
	outs     []outcome
	swapMS   []float64
	stats    fpsa.FleetStats // /fleetz right after the phase
	maxRepl  int             // most replicas of any model seen while polling
}

func measureFleet(e *env, o *outcomeSet, srv *server, vecs [][][]float64, dur time.Duration) (*fleetRun, error) {
	defer generatorGC()()
	rng := rand.New(rand.NewSource(e.seed))
	client := newClient(e.nproc)
	defer client.CloseIdleConnections()
	swapSeed := func(k int) int64 { return 1000 + 100*e.seed + int64(k) }
	load := func(dur time.Duration) ([]*fleetReq, []outcome) {
		sched, reqs := fleetSchedule(rng, dur, vecs, swapSeed)
		outs := runOpenLoop(e.ctx, sched, e.nproc, func(i int) error {
			r := reqs[i]
			if r.model < 0 {
				t0 := time.Now()
				err := srv.post(client, "/v1/swap", r.body, &r.swap)
				r.swapMS = ms(time.Since(t0))
				return err
			}
			var reply struct{ Class, Version int }
			if err := srv.post(client, "/v1/classify", r.body, &reply); err != nil {
				return err
			}
			r.class, r.version = reply.Class, reply.Version
			return nil
		})
		return reqs, outs
	}
	load(500 * time.Millisecond) // warm-up, no swaps
	// Poll /fleetz on a separate client for the autoscaler's high-water
	// mark while the phase runs.
	run := &fleetRun{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		poll := newClient(1)
		defer poll.CloseIdleConnections()
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			var st fpsa.FleetStats
			if srv.getJSON(poll, "/fleetz", &st) == nil {
				for _, m := range st.Models {
					run.maxRepl = max(run.maxRepl, m.Replicas)
				}
			}
		}
	}()
	run.reqs, run.outs = load(dur)
	close(stop)
	wg.Wait()
	if err := srv.getJSON(client, "/fleetz", &run.stats); err != nil {
		return nil, err
	}
	var cls []outcome
	for i, r := range run.reqs {
		o.attempted++
		if run.outs[i].err != nil {
			o.failed++
			continue
		}
		if r.model < 0 {
			run.swapMS = append(run.swapMS, r.swapMS)
			continue
		}
		cls = append(cls, run.outs[i])
	}
	run.classify = summarize(fleetRate, cls)
	logPhase(e, "fleet classify", run.classify)
	e.log("fleet swaps: client ms %v", run.swapMS)
	return run, nil
}

// checkFleet serves every (model, version) seen in the replies from a
// fresh single engine of that version's seed and compares classes.
func checkFleet(e *env, o *outcomeSet, run *fleetRun, vecs [][][]float64) error {
	seeds := make([]map[int]int64, len(fleetModels))
	for mi, m := range fleetModels {
		seeds[mi] = map[int]int64{1: m.seed}
	}
	used := make([]map[int]map[int]bool, len(fleetModels)) // model → version → vectors
	for mi := range used {
		used[mi] = map[int]map[int]bool{}
	}
	for i, r := range run.reqs {
		if run.outs[i].err != nil {
			continue
		}
		if r.model < 0 {
			seeds[0][r.swap.ToVersion] = r.swapSeed
			continue
		}
		if used[r.model][r.version] == nil {
			used[r.model][r.version] = map[int]bool{}
		}
		used[r.model][r.version][r.vec] = true
	}
	want := make([]map[[2]int]int, len(fleetModels)) // (version, vector) → class
	for mi, m := range fleetModels {
		want[mi] = map[[2]int]int{}
		for v, vset := range used[mi] {
			seed, ok := seeds[mi][v]
			if !ok {
				o.mismatch("fleet-http: model %s answered with unknown version %d", m.name, v)
				continue
			}
			eng, err := singleEngine(e, m.seed, seed, m.layers)
			if err != nil {
				return err
			}
			for k := range vset {
				c, err := eng.Classify(e.ctx, vecs[mi][k])
				if err != nil {
					eng.Close()
					return err
				}
				want[mi][[2]int{v, k}] = c
			}
			if err := eng.Close(); err != nil {
				return err
			}
		}
	}
	for i, r := range run.reqs {
		if run.outs[i].err != nil || r.model < 0 {
			continue
		}
		if c, ok := want[r.model][[2]int{r.version, r.vec}]; ok && c != r.class {
			o.mismatch("fleet-http: request %d model %s v%d vector %d: class %d, single engine says %d",
				i, fleetModels[r.model].name, r.version, r.vec, r.class, c)
		}
	}
	return nil
}

// singleEngine is a fresh single-engine deployment of one model version,
// built as fpsa-serve builds it.
func singleEngine(e *env, dataSeed, seed int64, layers []int) (*fpsa.Engine, error) {
	net, _, err := trainServed(dataSeed, seed, layers)
	if err != nil {
		return nil, err
	}
	d, err := fpsa.Compile(e.ctx, net.Model(), fpsa.WithWeightSource(net.WeightSource()), fpsa.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	return d.NewEngine(e.ctx, fpsa.WithWorkers(1))
}

func fleetVectors(e *env) [][][]float64 {
	rng := rand.New(rand.NewSource(e.seed))
	out := make([][][]float64, len(fleetModels))
	for mi, m := range fleetModels {
		ds := fpsa.SyntheticDataset(m.seed, 900, m.layers[0], m.layers[len(m.layers)-1], 0.08)
		out[mi] = pickVectors(rng, ds, fleetPool)
	}
	return out
}

func runFleetHTTP(e *env) (*outcomeSet, error) {
	o := &outcomeSet{}
	cfg, err := writeFleetConfig(e)
	if err != nil {
		return nil, err
	}
	srv, setups, err := startRepeated(e, "-fleet", cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	vecs := fleetVectors(e)
	run, err := measureFleet(e, o, srv, vecs, e.window)
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
	nets := map[int64]*fpsa.TrainedMLP{}
	for _, m := range fleetModels {
		if nets[m.seed], _, err = trainServed(m.seed, m.seed, m.layers); err != nil {
			return nil, err
		}
	}
	g, err := mlpGuards(e.ctx, nets)
	if err != nil {
		return nil, err
	}
	o.set("setup_s", "s", median(setups))
	o.set("latency_p50_ms", "ms", run.classify.P50MS)
	o.set("throughput_per_s", "1/s", run.classify.Achieved)
	o.set("success_rate", "fraction", 1-float64(o.failed)/float64(o.attempted))
	g.report(o)
	return o, nil
}
