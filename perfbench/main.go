// Command perfbench is the repository benchmark. It measures the FPSA
// stack from outside: it drives the real fpsa-serve binary over loopback
// HTTP, calls the root package's public API, and — in the traced run —
// calls the exported functions of the internal layers in the order the
// root package and fpsa-serve call them.
//
// Run it from the repository root through run.sh, which builds this
// program and fpsa-serve first:
//
//	bash perfbench/run.sh --workload serve-http --seed 1 --seconds 10 --trace 0
//
// --workload all runs every workload in turn. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; with --trace 0 the metrics are the end-to-end metrics of
// the workload, with --trace 1 the per-layer metrics of every workload.
// Any output mismatch prints correct=false and exits 1. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef declares a metric: its unit, its direction and what it is on
// each workload (end to end) or which end-to-end metric it should move
// (per layer).
type metricDef struct {
	Name, Unit, Better, About string
}

// endToEnd are the user-visible metrics, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "start to ready, median of several set-ups: fpsa-serve spawn to /healthz (HTTP workloads), Compile+NewEngine+first answer (conv-batch), zoo model construction (compile-pnr)"},
	{"latency_p50_ms", "ms", "lower", "median of: request from intended send at the reference rate (HTTP workloads), ClassifyBatch(16) call (conv-batch), compile job (compile-pnr)"},
	{"throughput_per_s", "1/s", "higher", "capacity: replies/s with nproc connections saturated (serve-http); delivered replies/s (fleet-http); samples/s (conv-batch); compile jobs/s (compile-pnr)"},
	{"success_rate", "fraction", "higher", "1 - (non-200 + transport errors + 429 sheds + failed calls) / attempted"},
	{"wirelength_cost", "cost", "lower", "placement cost summed over the workload's placed models (deterministic guard)"},
	{"routed_mean_hops", "hops", "lower", "mean routed hops over the workload's placed models (deterministic guard)"},
	{"bitstream_cells", "count", "lower", "programmed ReRAM cells summed over the workload's verified bitstreams (deterministic guard)"},
	{"model_energy_uj", "uJ", "lower", "perf-model energy per sample, geomean over the workload's models (deterministic guard)"},
}

// env is what every workload gets.
type env struct {
	ctx      context.Context
	seed     int64
	window   time.Duration
	serveBin string
	workDir  string
	nproc    int
	log      func(format string, args ...any)
}

// workload runs one workload; traced selects the per-layer replay.
type workload struct {
	name    string
	why     string
	run     func(e *env) (*outcomeSet, error)
	traceFn func(e *env, tr *tracer) (*outcomeSet, error)
}

// outcomeSet is what a workload run produced.
type outcomeSet struct {
	attempted, failed int
	metrics           map[string]metric
	mismatches        []string // output-check failures
}

func (o *outcomeSet) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcomeSet) mismatch(format string, args ...any) {
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

func (o *outcomeSet) merge(p *outcomeSet) {
	o.attempted += p.attempted
	o.failed += p.failed
	for k, v := range p.metrics {
		o.set(k, v.Unit, v.Value)
	}
	o.mismatches = append(o.mismatches, p.mismatches...)
}

var workloads = []workload{
	{"serve-http", "real single-engine fpsa-serve: HTTP/JSON, admission, flush deadline and tiny executor batches dominate", runServeHTTP, traceServeHTTP},
	{"conv-batch", "offline spiking conv scoring at batch 16: xbar's packed spiking kernel dominates, HTTP bypassed", runConvBatch, traceConvBatch},
	{"compile-pnr", "cold compile stack: synth, mapper, place, route, bitstream, perf and autotune do all the work", runCompilePnR, traceCompilePnR},
	{"fleet-http", "fpsa-serve -fleet: two models, two tenants, classify reads among hot-swap writes", runFleetHTTP, traceFleetHTTP},
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Int("seconds", 10, "measured window per workload")
	traced := flag.Int("trace", 0, "1 = traced per-layer run of every workload")
	serveBin := flag.String("serve-bin", "", "fpsa-serve binary (run.sh builds it)")
	workDir := flag.String("workdir", ".perfbench", "scratch directory for configs and span dumps")
	commit := flag.String("commit", "unknown", "source commit, for the host record")
	flag.Parse()
	if *serveBin == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: run through perfbench/run.sh; --seconds ≥ 1, --trace 0|1")
		os.Exit(2)
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	e := &env{
		ctx:      context.Background(),
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		serveBin: *serveBin,
		workDir:  *workDir,
		nproc:    nproc(),
		log:      func(f string, a ...any) { fmt.Printf("# "+f+"\n", a...) },
	}
	printHost(e, *name, *commit, *traced == 1)

	total := &outcomeSet{}
	if *traced == 1 {
		// The traced run replays every workload, so one run prints the
		// whole per-layer table.
		for _, w := range workloads {
			tr := newTracer()
			o, err := w.traceFn(e, tr)
			if err != nil {
				fatal(w.name, err)
			}
			spans := tr.snapshot()
			if err := dumpSpans(e, w.name, spans); err != nil {
				fatal(w.name, err)
			}
			o.set(w.name+".trace.spans", "count", float64(len(spans)))
			total.merge(o)
		}
		printTable(perLayer, total.metrics)
	} else {
		for _, w := range selected {
			e.log("workload %s: %s", w.name, w.why)
			o, err := w.run(e)
			if err != nil {
				fatal(w.name, err)
			}
			for _, d := range endToEnd {
				if _, ok := o.metrics[d.Name]; !ok {
					fatal(w.name, fmt.Errorf("metric %s not measured", d.Name))
				}
			}
			if len(selected) > 1 {
				// All workloads in one invocation: key by workload so
				// nothing collides.
				keyed := make(map[string]metric, len(o.metrics))
				for k, v := range o.metrics {
					keyed[w.name+"."+k] = v
				}
				o.metrics = keyed
			}
			total.merge(o)
		}
		defs := endToEnd
		if len(selected) > 1 {
			defs = nil
			for _, w := range selected {
				for _, d := range endToEnd {
					d.Name = w.name + "." + d.Name
					defs = append(defs, d)
				}
			}
		}
		printTable(defs, total.metrics)
	}
	for _, m := range total.mismatches {
		fmt.Println("# MISMATCH:", m)
	}
	for k, v := range total.metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fatal(k, fmt.Errorf("metric is %v", v.Value))
		}
	}
	res := result{
		Correct:   len(total.mismatches) == 0,
		Attempted: max(total.attempted, 1),
		Failed:    total.failed,
		Metrics:   total.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal("result", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(what string, err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	os.Exit(1)
}

// printHost records the host and the run.
func printHost(e *env, workload, commit string, traced bool) {
	e.log("host: GOMAXPROCS=%d NumCPU=%d nproc=%d go=%s os=%s/%s commit=%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), e.nproc, runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
	e.log("run: workload=%s seed=%d seconds=%v trace=%v", workload, e.seed, e.window.Seconds(), traced)
}

// nproc is the CPU count the process may use (the `nproc` command, which
// honours affinity masks and quotas the runtime may not).
func nproc() int {
	var n int
	if out, err := exec.Command("nproc").Output(); err == nil {
		if _, err := fmt.Sscan(string(out), &n); err == nil && n > 0 {
			return n
		}
	}
	return runtime.NumCPU()
}

func printTable(defs []metricDef, got map[string]metric) {
	names := make([]string, 0, len(got))
	for k := range got {
		names = append(names, k)
	}
	sort.Strings(names)
	about := make(map[string]metricDef, len(defs))
	for _, d := range defs {
		about[d.Name] = d
	}
	for _, k := range names {
		m := got[k]
		d := about[k]
		fmt.Printf("%-52s %14.6g %-9s better=%-6s %s\n", k, m.Value, m.Unit, d.Better, d.About)
	}
}

func dumpSpans(e *env, name string, spans []span) error {
	path := filepath.Join(e.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, e.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	e.log("%s: %d spans written to %s", name, len(spans), path)
	return nil
}

// geomean of positive values.
func geomean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}
