package main

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"fpsa"
)

// guards are the deterministic compile-quality figures of a workload's
// models: a speed-up that degrades placement, routing or the bitstream
// shows here even when every timing improves.
type guards struct {
	wirelength float64
	hopSum     float64
	hopModels  int
	cells      int
	energies   []float64
	// placedRuns fingerprints each placed model's P&R stats, bitstream
	// and modelled performance, for exact repeat checks.
	placedRuns []string
}

// placed compiles m, places and routes it, generates and verifies its
// bitstream and evaluates it with the measured hop count, folding the
// results into g.
func (g *guards) placed(ctx context.Context, m fpsa.Model, opts ...fpsa.Option) error {
	d, err := fpsa.Compile(ctx, m, opts...)
	if err != nil {
		return fmt.Errorf("compile %s: %w", m.Name(), err)
	}
	pr, err := d.PlaceAndRoute(ctx)
	if err != nil {
		return fmt.Errorf("place and route %s: %w", m.Name(), err)
	}
	bs, err := d.Bitstream(ctx) // generation verifies the configuration
	if err != nil {
		return fmt.Errorf("bitstream %s: %w", m.Name(), err)
	}
	p, err := d.PerformanceWithHops(int(pr.MeanHops + 0.5))
	if err != nil {
		return fmt.Errorf("performance %s: %w", m.Name(), err)
	}
	g.wirelength += pr.WirelengthCost
	g.hopSum += pr.MeanHops
	g.hopModels++
	g.cells += bs.ProgrammedCells
	g.energies = append(g.energies, p.EnergyUJ)
	g.placedRuns = append(g.placedRuns, fmt.Sprintf("%s: %+v %+v %+v", m.Name(), pr, bs, p))
	return nil
}

// add folds another job's guards into g.
func (g *guards) add(o *guards) {
	g.wirelength += o.wirelength
	g.hopSum += o.hopSum
	g.hopModels += o.hopModels
	g.cells += o.cells
	g.energies = append(g.energies, o.energies...)
	g.placedRuns = append(g.placedRuns, o.placedRuns...)
}

func (g *guards) report(o *outcomeSet) {
	o.set("wirelength_cost", "cost", g.wirelength)
	o.set("routed_mean_hops", "hops", g.hopSum/float64(g.hopModels))
	o.set("bitstream_cells", "count", float64(g.cells))
	o.set("model_energy_uj", "uJ", geomean(g.energies))
}

// mlpGuards computes the guards of trained MLPs as fpsa-serve deploys
// them (compile seed = training seed).
func mlpGuards(ctx context.Context, nets map[int64]*fpsa.TrainedMLP) (*guards, error) {
	g := &guards{}
	for _, seed := range slices.Sorted(maps.Keys(nets)) {
		if err := g.placed(ctx, nets[seed].Model(), fpsa.WithWeightSource(nets[seed].WeightSource()), fpsa.WithSeed(seed)); err != nil {
			return nil, err
		}
	}
	return g, nil
}
