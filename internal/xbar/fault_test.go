package xbar

import (
	"math"
	"math/rand"
	"testing"

	"fpsa/internal/device"
)

// faultedArms programs the same logical weights twice — once under a
// fault mask, once with the stuck cells folded into the weight matrix by
// hand (plus an analog-only mask carrying the same drift/read stream) —
// and returns both crossbars. The two must be indistinguishable: stuck
// faults are defined as a logical-weight mask applied before the
// polarity split, and every programming RNG draw is value-independent.
func faultedArms(t *testing.T, seed int64, rows, cols int, faultBytes []byte, noisy, analog bool) (*Crossbar, *Crossbar, int) {
	t.Helper()
	cfg := testConfig(0)
	var prngF, prngM *rand.Rand
	if noisy {
		cfg.Spec = device.Cell4BitMeasured
		cfg.Rep = device.NewAdd(cfg.Spec, cfg.Params.CellsPerWeight)
		prngF = rand.New(rand.NewSource(seed + 1))
		prngM = rand.New(rand.NewSource(seed + 1))
	}
	maxW := cfg.Rep.MaxWeight()
	rng := rand.New(rand.NewSource(seed))
	weights := randomWeights(rng, rows, cols, maxW)

	fm := device.FaultMap{Rows: rows, Cols: cols}
	if analog {
		fm.Drift = 0.1
		fm.ReadSigma = 1e-7
		fm.ReadSeed = seed + 2
	}
	masked := make([][]int, rows)
	for i := range masked {
		masked[i] = append([]int(nil), weights[i]...)
	}
	for k := 0; k < rows*cols && len(faultBytes) > 0; k++ {
		i, j := k/cols, k%cols
		switch faultBytes[k%len(faultBytes)] % 3 {
		case 1:
			fm.Cells = append(fm.Cells, device.FaultCell{Row: i, Col: j, Kind: device.FaultStuckLow})
			masked[i][j] = 0
		case 2:
			fm.Cells = append(fm.Cells, device.FaultCell{Row: i, Col: j, Kind: device.FaultStuckHigh})
			masked[i][j] = maxW
		}
	}
	if err := fm.Validate(); err != nil {
		t.Fatal(err)
	}

	cfgF := cfg
	mask := fm.MaskFor(rows, cols, false)
	cfgF.Faults = &mask
	faulted, err := Program(cfgF, weights, prngF)
	if err != nil {
		t.Fatal(err)
	}
	cfgM := cfg
	analogOnly := device.FaultMap{Rows: rows, Cols: cols, Drift: fm.Drift, ReadSigma: fm.ReadSigma, ReadSeed: fm.ReadSeed}.MaskFor(rows, cols, false)
	if analogOnly.Active() {
		cfgM.Faults = &analogOnly
	}
	byHand, err := Program(cfgM, masked, prngM)
	if err != nil {
		t.Fatal(err)
	}
	return faulted, byHand, len(fm.Cells)
}

// assertSameConductances requires bit-identical programmed state.
func assertSameConductances(t *testing.T, faulted, byHand *Crossbar) {
	t.Helper()
	for k := range byHand.pnG {
		if math.Float64bits(faulted.pnG[k]) != math.Float64bits(byHand.pnG[k]) {
			t.Fatalf("pnG[%d]: faulted %x, masked-by-hand %x", k, faulted.pnG[k], byHand.pnG[k])
		}
	}
}

// TestProgramFaultedVsMasked pins the masked-weights fault equivalence
// on fixed cases across ideal/noisy programming and with the analog
// effects on and off.
func TestProgramFaultedVsMasked(t *testing.T) {
	for _, tc := range []struct {
		name          string
		bytes         []byte
		noisy, analog bool
	}{
		{"ideal", []byte{0, 1, 2, 0, 0, 1}, false, false},
		{"noisy", []byte{2, 2, 0, 1}, true, false},
		{"noisy-analog", []byte{1, 0, 2}, true, true},
		{"no-faults", nil, true, true},
	} {
		faulted, byHand, cells := faultedArms(t, 77, 19, 6, tc.bytes, tc.noisy, tc.analog)
		assertSameConductances(t, faulted, byHand)
		if got := faulted.FaultedCells(); got != cells {
			t.Fatalf("%s: FaultedCells() = %d, want %d", tc.name, got, cells)
		}
		if got := byHand.FaultedCells(); tc.bytes != nil && got != 0 {
			t.Fatalf("%s: by-hand arm reports %d faulted cells", tc.name, got)
		}
	}
}

// TestProgramFaultMaskGeometryMismatch: a mask sized for a different
// matrix is a programming error, not a silent partial application.
func TestProgramFaultMaskGeometryMismatch(t *testing.T) {
	cfg := testConfig(0)
	mask := device.FaultMap{Rows: 4, Cols: 4, Cells: []device.FaultCell{{Kind: device.FaultStuckLow}}}.MaskFor(4, 4, false)
	cfg.Faults = &mask
	rng := rand.New(rand.NewSource(1))
	if _, err := Program(cfg, randomWeights(rng, 5, 4, cfg.Rep.MaxWeight()), nil); err == nil {
		t.Fatal("Program accepted a 4x4 mask over 5x4 weights")
	}
}

// FuzzProgramFaultedVsMasked fuzzes the masked-weights equivalence:
// arbitrary stuck-cell patterns over fuzzed shapes, under ideal and
// noisy programming, with and without drift/read variation, must program
// conductances bit-identical to masking the weight matrix by hand. Seed
// corpus under testdata/fuzz/FuzzProgramFaultedVsMasked; CI runs a short
// -fuzztime smoke pass.
func FuzzProgramFaultedVsMasked(f *testing.F) {
	f.Add(int64(1), 1, 1, []byte{1}, false, false)
	f.Add(int64(7), 23, 7, []byte{0, 2, 1, 0, 2}, true, false)
	f.Add(int64(42), 8, 3, []byte{2, 2, 2}, true, true)
	f.Fuzz(func(t *testing.T, seed int64, rows, cols int, faultBytes []byte, noisy, analog bool) {
		if rows < 1 || rows > 80 || cols < 1 || cols > 16 {
			t.Skip()
		}
		faulted, byHand, cells := faultedArms(t, seed, rows, cols, faultBytes, noisy, analog)
		assertSameConductances(t, faulted, byHand)
		if got := faulted.FaultedCells(); got != cells {
			t.Fatalf("FaultedCells() = %d, want %d", got, cells)
		}
	})
}
