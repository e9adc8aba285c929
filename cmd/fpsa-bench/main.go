// Command fpsa-bench regenerates the paper's evaluation artifacts: every
// table and figure, rendered as text with paper-vs-measured annotations,
// plus the measured serving artifacts (single-chip micro-batching, the
// multi-chip sharded pipeline, and the sparse-kernel density sweep).
//
// Usage:
//
//	fpsa-bench                         # run everything
//	fpsa-bench -exp figure8            # one artifact
//	fpsa-bench -exp serving -batch 32  # serving throughput at batch 32
//	fpsa-bench -exp sharding           # 1/2/4-chip pipelined serving
//	fpsa-bench -exp sharding -min-speedup 0.8  # pipeline-overlap floor
//	fpsa-bench -exp sparsity           # dense vs bit-packed sparse kernel
//	fpsa-bench -exp autotune           # per-layer autotuner vs uniform sweep
//	fpsa-bench -exp faults             # stuck-cell fault injection, remap on/off
//	fpsa-bench -exp fleet              # multi-model fleet load test with hot-swaps
//	fpsa-bench -json -out BENCH.json   # machine-readable serving report
//	fpsa-bench -baseline BENCH.json    # rerun and fail on regression
//	fpsa-bench -list                   # show artifact IDs
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"

	"fpsa"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list)")
	batch := flag.Int("batch", 0, "micro-batch size for the serving, sharding and sparsity experiments (0 = default 16)")
	samples := flag.Int("samples", 0, "sample count for the -json / -baseline serving experiments (0 = default 512)")
	jsonOut := flag.Bool("json", false, "emit the serving, sharding, sparsity, autotune, faults and fleet results as one JSON report (ignores -exp)")
	baseline := flag.String("baseline", "", "rerun the JSON report and exit nonzero if serving throughput regressed against this BENCH_PR*.json snapshot")
	regress := flag.Float64("regress", 0.10, "regression tolerance for -baseline (fraction below baseline that fails)")
	minSpeedup := flag.Float64("min-speedup", 0, "with -exp sharding, run the sweep 5 times and exit nonzero when the median 2-chip speedup is below this (0 = no check; needs GOMAXPROCS >= 2)")
	out := flag.String("out", "", "write output to this file instead of stdout")
	list := flag.Bool("list", false, "list experiment ids")
	flag.Parse()
	if *list {
		fmt.Println(strings.Join(fpsa.ExperimentIDs(), "\n"))
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	id := strings.ToLower(*exp)
	measured := id == "serving" || id == "sharding" || id == "sparsity"
	if *batch != 0 && !measured && !*jsonOut && *baseline == "" {
		fmt.Fprintln(os.Stderr, "fpsa-bench: -batch only applies to -exp serving/sharding/sparsity, -json, or -baseline")
		os.Exit(1)
	}
	if *minSpeedup != 0 && (id != "sharding" || *jsonOut || *baseline != "") {
		fmt.Fprintln(os.Stderr, "fpsa-bench: -min-speedup only applies to -exp sharding")
		os.Exit(1)
	}
	var text string
	var err error
	switch {
	case *baseline != "":
		text, err = runBaseline(ctx, *baseline, *batch, *samples, *regress)
	case *jsonOut:
		var rep fpsa.BenchReport
		rep, err = fpsa.RunBenchReport(ctx, *batch, *samples)
		if err == nil {
			var b []byte
			b, err = rep.JSON()
			text = string(b)
		}
	case id == "serving":
		text, err = fpsa.RunServingExperiment(ctx, *batch)
	case id == "sharding" && *minSpeedup > 0:
		text, err = runShardingFloor(ctx, *batch, *minSpeedup)
	case id == "sharding":
		text, err = fpsa.RunShardingExperiment(ctx, *batch)
	case id == "sparsity":
		text, err = fpsa.RunSparsityExperiment(ctx, *batch)
	default:
		text, err = fpsa.RunExperiment(ctx, *exp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpsa-bench:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fpsa-bench:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Print(text)
}

// runBaseline reruns the serving report and compares it against the
// committed snapshot, returning a summary and exiting nonzero on any
// regression beyond tol.
func runBaseline(ctx context.Context, path string, batch, samples int, tol float64) (string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var base fpsa.BenchReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return "", fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	cur, err := fpsa.RunBenchReport(ctx, batch, samples)
	if err != nil {
		return "", err
	}
	regressions, warnings := fpsa.CompareBenchReports(base, cur, tol)
	var b strings.Builder
	fmt.Fprintf(&b, "baseline %s vs fresh run (batch %d, samples %d, tolerance %.0f%%)\n",
		path, batch, samples, 100*tol)
	fmt.Fprintf(&b, "  serving: serial %.1f/%.1f  batched %.1f/%.1f  engine %.1f/%.1f (baseline/current samples/s)\n",
		base.Serving.SerialSPS, cur.Serving.SerialSPS,
		base.Serving.BatchedSPS, cur.Serving.BatchedSPS,
		base.Serving.EngineSPS, cur.Serving.EngineSPS)
	if base.Fleet.Offered > 0 || cur.Fleet.Offered > 0 {
		fmt.Fprintf(&b, "  fleet: %.1f/%.1f req/s  shed %.2f%%/%.2f%%  p999 %.4g/%.4g us (baseline/current)\n",
			base.Fleet.QPS, cur.Fleet.QPS,
			100*base.Fleet.ShedRate, 100*cur.Fleet.ShedRate,
			base.Fleet.P999LatencyUS, cur.Fleet.P999LatencyUS)
	}
	for _, w := range warnings {
		fmt.Fprintf(&b, "  WARNING: %s\n", w)
	}
	if len(regressions) == 0 {
		b.WriteString("  no regressions\n")
		return b.String(), nil
	}
	for _, r := range regressions {
		fmt.Fprintf(&b, "  REGRESSION: %s\n", r)
	}
	fmt.Print(b.String())
	os.Exit(1)
	return "", nil
}

// runShardingFloor repeats the sharding experiment and checks the
// pipeline-overlap property on the median 2-chip speedup: with at least
// two cores, cutting the model across two pipelined chips must not fall
// below floor × the single-chip throughput. One wall-clock run on a
// shared host is noise; the median of several, run alone, is a check.
// It exits nonzero when the floor is missed.
func runShardingFloor(ctx context.Context, batch int, floor float64) (string, error) {
	const reps = 5 // sweeps the median is taken over
	if procs := runtime.GOMAXPROCS(0); procs < 2 {
		return "", fmt.Errorf("-min-speedup needs GOMAXPROCS >= 2 for the chips to overlap, have %d", procs)
	}
	var b strings.Builder
	speedups := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		r, err := fpsa.ShardingBench(ctx, fpsa.ShardingBenchOptions{Batch: batch, Mode: fpsa.ModeSpiking})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "run %d/%d: ", i+1, reps)
		b.WriteString(r.String())
		for _, row := range r.Rows {
			if row.RealChips == 2 {
				speedups = append(speedups, row.Speedup)
			}
		}
	}
	if len(speedups) != reps {
		return "", fmt.Errorf("sharding sweep realized a 2-chip row in %d of %d runs", len(speedups), reps)
	}
	median := slices.Sorted(slices.Values(speedups))[reps/2]
	fmt.Fprintf(&b, "2-chip speedup: median %.2fx over %d runs %.2f\n", median, reps, speedups)
	if median >= floor {
		return b.String(), nil
	}
	fmt.Fprintf(&b, "FAIL: median 2-chip speedup %.2fx below the %.2fx floor\n", median, floor)
	fmt.Print(b.String())
	os.Exit(1)
	return "", nil
}
