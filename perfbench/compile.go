package main

import (
	"context"
	"runtime"
	"slices"
	"time"

	"fpsa"
)

// The compile-pnr workload is a cold compile stack: no cache, default
// options. Zoo models too large for a practical place & route (AlexNet's
// did not finish in 8 minutes) are compiled and evaluated with the
// calibrated hop estimate only.
var (
	pnrModels      = []string{"MLP-500-100", "LeNet", "CIFAR-VGG17"}
	perfOnlyModels = []string{"AlexNet", "VGG16", "GoogLeNet", "ResNet152"}
	tuneObjectives = []fpsa.Objective{fpsa.MinLatency, fpsa.MinEnergy}
)

const (
	shardedModel = "LeNet"
	tunePEBudget = 480
)

// compileJob is one timed job of the workload.
type compileJob struct {
	name string
	run  func(ctx context.Context, g *guards) error
}

// fullStack is Compile → PlaceAndRoute → Bitstream → PerformanceWithHops
// with the measured hops.
func fullStack(label, name string, opts ...fpsa.Option) compileJob {
	return compileJob{label, func(ctx context.Context, g *guards) error {
		m, err := fpsa.LoadBenchmark(name)
		if err != nil {
			return err
		}
		return g.placed(ctx, m, opts...)
	}}
}

func compileJobs() []compileJob {
	var jobs []compileJob
	for _, name := range pnrModels {
		jobs = append(jobs, fullStack(name, name))
	}
	jobs = append(jobs, fullStack(shardedModel+"/2chips", shardedModel, fpsa.WithChips(2)))
	for _, name := range perfOnlyModels {
		jobs = append(jobs, compileJob{name, func(ctx context.Context, g *guards) error {
			m, err := fpsa.LoadBenchmark(name)
			if err != nil {
				return err
			}
			d, err := fpsa.Compile(ctx, m)
			if err != nil {
				return err
			}
			p, err := d.Performance()
			if err != nil {
				return err
			}
			g.energies = append(g.energies, p.EnergyUJ)
			return nil
		}})
	}
	for _, obj := range tuneObjectives {
		jobs = append(jobs, compileJob{"autotune/" + obj.String(), func(ctx context.Context, g *guards) error {
			m, err := fpsa.LoadBenchmark(shardedModel)
			if err != nil {
				return err
			}
			_, _, err = fpsa.Autotune(ctx, m, obj, fpsa.WithPEBudget(tunePEBudget))
			return err
		}})
	}
	return jobs
}

// compileSetup is the workload's start-up: constructing every zoo model.
func compileSetup() (time.Duration, error) {
	t0 := time.Now()
	for _, name := range fpsa.BenchmarkModels() {
		if _, err := fpsa.LoadBenchmark(name); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// Jobs faster than cheapJob run cheapReps times and report their median,
// so the sub-second jobs that set the median job time are not single
// samples. Repetitions run in passes over the job list, and a set-up is
// timed before every job, so both medians draw on the whole run rather
// than on one stretch of a shared host's time.
const (
	cheapJob  = time.Second
	cheapReps = 5
)

func runCompilePnR(e *env) (*outcomeSet, error) {
	o := &outcomeSet{}
	jobs := compileJobs()
	runs := make([][]float64, len(jobs))
	first := make([]*guards, len(jobs))
	var setups []float64
	for rep := 0; rep < cheapReps; rep++ {
		for i, j := range jobs {
			if rep > 0 && (first[i] == nil || runs[i][0] >= ms(cheapJob)) {
				continue
			}
			runtime.GC()
			d, err := compileSetup()
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
			g := &guards{}
			runtime.GC() // the previous job's garbage is not this job's cost
			t0 := time.Now()
			err = j.run(e.ctx, g)
			elapsed := time.Since(t0)
			o.attempted++
			if err != nil {
				o.failed++
				o.mismatch("compile-pnr: %s: %v", j.name, err)
				continue
			}
			runs[i] = append(runs[i], ms(elapsed))
			if first[i] == nil {
				first[i] = g
			} else if !slices.Equal(g.placedRuns, first[i].placedRuns) || !slices.Equal(g.energies, first[i].energies) {
				o.mismatch("compile-pnr: %s repeat %d differs: %q vs %q", j.name, rep, g.placedRuns, first[i].placedRuns)
			}
		}
	}
	total := &guards{}
	var jobMS []float64
	var compileTotal float64
	for i, j := range jobs {
		if first[i] == nil {
			continue
		}
		total.add(first[i])
		m := median(runs[i])
		jobMS = append(jobMS, m)
		compileTotal += m / 1e3
		e.log("compile-pnr: %-22s median %9.1f ms of %d runs %.1f", j.name, m, len(runs[i]), runs[i])
	}
	s := sortedCopy(jobMS)
	o.set("setup_s", "s", median(setups))
	o.set("latency_p50_ms", "ms", percentile(s, 0.5))
	o.set("throughput_per_s", "1/s", float64(len(jobMS))/compileTotal)
	o.set("success_rate", "fraction", 1-float64(o.failed)/float64(o.attempted))
	total.report(o)
	return o, nil
}
