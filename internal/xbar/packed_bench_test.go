package xbar

import (
	"fmt"
	"math/rand"
	"testing"

	"fpsa/internal/device"
)

// BenchmarkSimulateCounts compares the dense and packed spiking kernels
// across input spike densities on a serving-shaped crossbar, for ideal
// programming (count grouping available) and noisy programming (order-
// preserving row iteration). The packed win comes from dead-cycle
// skipping and, in the ideal case, count grouping. The conv/ cases run
// the shape of the perfbench conv-batch layer: an 18×8 tile (3×3
// kernel over 2 channels, 8 filters), ideal programming, η ≈ 823 as the
// synthesizer's safeEta picks for it, input density ≈ 0.24.
func BenchmarkSimulateCounts(b *testing.B) {
	rng := rand.New(rand.NewSource(81))
	const batch, rows, cols = 16, 48, 24
	for _, noisy := range []bool{false, true} {
		cfg := testConfig(0)
		var prng *rand.Rand
		label := "ideal"
		if noisy {
			cfg.Spec = device.Cell4BitMeasured
			prng = rand.New(rand.NewSource(17))
			label = "noisy"
		}
		weights := randomWeights(rng, rows, cols, cfg.Rep.MaxWeight())
		xb, err := Program(cfg, weights, prng)
		if err != nil {
			b.Fatal(err)
		}
		xb.SetEta(float64(cfg.Rep.MaxWeight()) * 12)
		for _, d := range []float64{0.02, 0.05, 0.1, 0.3, 0.6, 1.0} {
			src := make([]int, 0, batch*rows)
			for i := 0; i < batch; i++ {
				src = append(src, countsAtDensity(rng, rows, xb.Window(), d)...)
			}
			dst := make([]int, batch*cols)
			benchKernels(b, fmt.Sprintf("%s/%%s/d=%.2f", label, d), xb, dst, src, batch)
		}
	}
	cfg := testConfig(0)
	xb, err := Program(cfg, randomWeights(rng, 18, 8, cfg.Rep.MaxWeight()), nil)
	if err != nil {
		b.Fatal(err)
	}
	xb.SetEta(823)
	src := make([]int, 0, batch*18)
	for i := 0; i < batch; i++ {
		src = append(src, countsAtDensity(rng, 18, xb.Window(), 0.24)...)
	}
	benchKernels(b, "conv/%s/d=0.24", xb, make([]int, batch*8), src, batch)
}

// benchKernels runs the dense and the packed kernel on one batch as two
// sub-benchmarks; name has one %s for the kernel.
func benchKernels(b *testing.B, name string, xb *Crossbar, dst, src []int, batch int) {
	b.Run(fmt.Sprintf(name, "dense"), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := xb.SimulateCountsBatchDense(dst, src, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf(name, "packed"), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := xb.SimulateCountsBatchPacked(dst, src, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}
