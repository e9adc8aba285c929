package xbar

import (
	"math"
	"math/bits"
	"os"
	"strconv"

	"fpsa/internal/spike"
)

// Path selects which spiking kernel SimulateCountsBatch runs. The sparse
// and dense kernels are bit-identical (pinned by the property/fuzz suite
// and documented in docs/INVARIANTS.md), so Path is purely a performance
// knob.
type Path int

const (
	// PathAuto probes each micro-batch's spike density and takes the
	// packed kernel when it is at or below the sparse threshold. This is
	// the default everywhere.
	PathAuto Path = iota
	// PathDense always runs the dense cycle-level kernel.
	PathDense
	// PathSparse always runs the bit-packed kernel.
	PathSparse
)

// String renders the path the way the FPSA_SPIKE_PATH env var and the
// -spikepath flag spell it.
func (p Path) String() string {
	switch p {
	case PathDense:
		return "dense"
	case PathSparse:
		return "sparse"
	default:
		return "auto"
	}
}

// DefaultSparseThreshold is the auto-selection density cutoff: micro-
// batches whose input spike density (Σ counts / (batch·rows·Γ)) is at or
// below it take the packed kernel. The value is tuned on the fpsa-bench
// sparsity sweep (BENCH_PR7.json): at the crossover the kernels are within
// noise of each other, well below it the packed path wins by >2×.
const DefaultSparseThreshold = 0.30

// Environment overrides for the spike-path selection, read once per
// Program call. They outrank the Config/engine options so an operator can
// flip a deployed binary without a rebuild:
//
//	FPSA_SPIKE_PATH=auto|dense|sparse   force the kernel choice
//	FPSA_SPIKE_DENSITY=0.15             auto-selection density threshold
const (
	EnvSpikePath     = "FPSA_SPIKE_PATH"
	EnvSparseDensity = "FPSA_SPIKE_DENSITY"
)

// ResolvePath applies the default threshold and the environment overrides
// to a configured path/threshold pair. Unknown env values are ignored
// rather than failing: kernel selection must never take down a serving
// process, and the paths are semantically identical anyway.
func ResolvePath(path Path, threshold float64) (Path, float64) {
	if threshold <= 0 || threshold > 1 {
		threshold = DefaultSparseThreshold
	}
	switch os.Getenv(EnvSpikePath) {
	case "auto":
		path = PathAuto
	case "dense":
		path = PathDense
	case "sparse":
		path = PathSparse
	}
	if v := os.Getenv(EnvSparseDensity); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 && f <= 1 {
			threshold = f
		}
	}
	return path, threshold
}

// KernelStats counts spiking-kernel selections and the observed input
// spike density. Counters accumulate across a Crossbar's lifetime and are
// safe to read while other goroutines execute (serve.Engine reads them
// live); executors sum them across their crossbars.
type KernelStats struct {
	// SparseBatches / DenseBatches count SimulateCountsBatch calls that
	// took the packed and the dense kernel respectively.
	SparseBatches uint64
	DenseBatches  uint64
	// Spikes and SpikeSlots accumulate the observed input spike counts
	// and the capacity (batch·rows·Γ) they were observed over; their
	// ratio is the density the auto-probe saw.
	Spikes     uint64
	SpikeSlots uint64
}

// Density returns the observed input spike density in [0, 1], or 0 before
// any spiking batch ran.
func (s KernelStats) Density() float64 {
	if s.SpikeSlots == 0 {
		return 0
	}
	return float64(s.Spikes) / float64(s.SpikeSlots)
}

// Add returns the element-wise sum of two stats records.
func (s KernelStats) Add(o KernelStats) KernelStats {
	s.SparseBatches += o.SparseBatches
	s.DenseBatches += o.DenseBatches
	s.Spikes += o.Spikes
	s.SpikeSlots += o.SpikeSlots
	return s
}

// KernelStats returns the crossbar's accumulated kernel-selection
// counters.
func (c *Crossbar) KernelStats() KernelStats {
	return KernelStats{
		SparseBatches: c.sparseN.Load(),
		DenseBatches:  c.denseN.Load(),
		Spikes:        c.spikeN.Load(),
		SpikeSlots:    c.slotN.Load(),
	}
}

// VMMBatchPacked computes the batched binary vector-matrix product over a
// bit-packed input: masks is batch×Lanes(rows) words where bit i of item
// b's lane group reports input i firing, and
//
//	out[b*cols+j] = Σ_{i: bit i set} weights[i*cols+j]
//
// It is the packed analog of VMMBatch with 0/1 inputs and is bit-identical
// to it: set rows are visited in ascending order and 1·w adds are exactly
// w adds, so the float accumulation order matches (pinned by
// FuzzVMMBatchPackedVsDense). Stray bits at or beyond rows in the last
// lane are ignored.
func VMMBatchPacked(out, weights []float64, masks []uint64, batch, rows, cols int) {
	if batch == 0 || rows == 0 || cols == 0 {
		return
	}
	lanes := spike.Lanes(rows)
	_ = out[batch*cols-1]
	_ = masks[batch*lanes-1]
	_ = weights[rows*cols-1]
	for k := range out[:batch*cols] {
		out[k] = 0
	}
	tail := uint64(0)
	if r := rows & 63; r != 0 {
		tail = 1<<uint(r) - 1
	}
	for b := 0; b < batch; b++ {
		o := out[b*cols : (b+1)*cols]
		m := masks[b*lanes : (b+1)*lanes]
		for l, word := range m {
			if l == lanes-1 && tail != 0 {
				word &= tail
			}
			base := l << 6
			for word != 0 {
				i := base + bits.TrailingZeros64(word)
				word &= word - 1
				w := weights[i*cols : (i+1)*cols]
				for j, wv := range w {
					o[j] += wv
				}
			}
		}
	}
}

// SimulateCountsBatchDense forces the dense cycle-level kernel regardless
// of the configured path — the benchmark and property-test baseline.
func (c *Crossbar) SimulateCountsBatchDense(dst, src []int, batch int) error {
	if batch == 0 {
		return nil
	}
	if err := c.checkBatch(dst, src, batch); err != nil {
		return err
	}
	c.denseN.Add(1)
	c.simulateCountsDense(dst, src, batch)
	return nil
}

// SimulateCountsBatchPacked forces the bit-packed sparse kernel regardless
// of the configured path. Output is bit-identical to the dense kernel.
func (c *Crossbar) SimulateCountsBatchPacked(dst, src []int, batch int) error {
	if batch == 0 {
		return nil
	}
	if err := c.checkBatch(dst, src, batch); err != nil {
		return err
	}
	c.sparseN.Add(1)
	c.simulateCountsPacked(dst, src, batch)
	return nil
}

// probeDensity sums the clamped input spike counts of a micro-batch and
// records them in the stats counters; the returned density drives the
// auto-selection.
func (c *Crossbar) probeDensity(src []int, batch int) float64 {
	total := 0
	for _, v := range src {
		total += spike.Clamp(v, c.window)
	}
	slots := batch * c.rows * c.window
	c.spikeN.Add(uint64(total))
	c.slotN.Add(uint64(slots))
	if slots == 0 {
		return 0
	}
	return float64(total) / float64(slots)
}

// simulateCountsPacked is the sparsity-aware spiking kernel: the same
// cycle-level integrate-and-fire/subtracter semantics as the dense kernel,
// restructured so that work scales with spike events instead of with
// rows×Γ×cols.
//
// Per batch item it
//
//  1. collapses the input rows into drive units (buildUnits) — rows with
//     a zero count drop out; on exact-sum crossbars (integer-valued,
//     bounded conductances, see classifyProgramming) rows with an equal
//     count of at least 2 share one unit whose conductance row is
//     pre-summed, on inexact (noisy) ones every firing row stays its own
//     unit in ascending row order;
//  2. ORs each unit's spike train, looked up in the train table Program
//     attached, into a live-cycle mask, zeroes the live rows of the
//     Γ×2·cols drive matrix, and then, visiting units in ascending order,
//     adds each unit's interleaved [P, N] conductance row into the drive
//     row of every cycle it fires in;
//  3. walks the active columns cycle by cycle over the live mask with a
//     branch-free neuron/subtracter step. Zero-drive gap cycles are
//     stepped only while some column is hot (a membrane at or above η
//     fires even without drive); cold gaps are skipped.
//
// Bit-exactness with the dense kernel rests on four facts:
//
//   - for every (cycle, column) the adds happen in ascending unit order,
//     which is the dense kernel's ascending row order (pre-summed groups
//     exist only where every sum is an exact integer, so order is free);
//   - zero-then-add is exactly what the dense kernel does for every
//     cycle's drive;
//   - a zero-drive step of a cold column is a no-op, so skipping a gap
//     while no column is hot, and never walking a column without
//     conductance while η > 0, changes nothing;
//   - subtracting η·0.0 leaves a non-negative membrane unchanged, so the
//     branch-free m -= η·float64(s) is the dense conditional subtraction.
//
// The property and fuzz suites pin the invariant.
func (c *Crossbar) simulateCountsPacked(dst, src []int, batch int) {
	window, cols, w := c.window, c.cols, 2*c.cols
	lanes := spike.Lanes(window)
	eta := c.eta
	// With η ≤ 0 every column fires every cycle, zero columns included.
	walk := c.activeCols
	if eta <= 0 {
		walk = c.allCols
	}
	c.drvAll = grow(c.drvAll, window*w)
	c.live = grow(c.live, lanes)
	c.neurons = grow(c.neurons, cols)
	for b := 0; b < batch; b++ {
		c.buildUnits(src[b*c.rows : (b+1)*c.rows])
		clear(c.live)
		for _, u := range c.units {
			for l, word := range c.trainTab[u.count*lanes : (u.count+1)*lanes] {
				c.live[l] |= word
			}
		}
		for l, word := range c.live {
			for word != 0 {
				t := l<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				clear(c.drvAll[t*w : (t+1)*w])
			}
		}
		for _, u := range c.units {
			g := u.g[:w]
			for l, word := range c.trainTab[u.count*lanes : (u.count+1)*lanes] {
				for word != 0 {
					t := l<<6 | bits.TrailingZeros64(word)
					word &= word - 1
					addRow(c.drvAll[t*w:(t+1)*w], g)
				}
			}
		}
		clear(c.neurons)
		next := 0 // first cycle not yet stepped
		for l, word := range c.live {
			for word != 0 {
				t := l<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				for ; next < t && anyHot(c.neurons, walk, eta); next++ {
					stepColumns(c.neurons, c.zeroDrive, walk, eta)
				}
				stepColumns(c.neurons, c.drvAll[t*w:(t+1)*w], walk, eta)
				next = t + 1
			}
		}
		for ; next < window && anyHot(c.neurons, walk, eta); next++ {
			stepColumns(c.neurons, c.zeroDrive, walk, eta)
		}
		out := dst[b*cols : (b+1)*cols]
		clear(out)
		for _, j := range walk {
			out[j] = c.neurons[j].out
		}
	}
}

// addRow adds g into row element-wise, four lanes per iteration (the
// compiler neither unrolls nor vectorizes); len(row) ≥ len(g).
func addRow(row, g []float64) {
	row = row[:len(g)]
	k := 0
	for ; k+4 <= len(g); k += 4 {
		r, v := row[k:k+4:k+4], g[k:k+4:k+4]
		r[0] += v[0]
		r[1] += v[1]
		r[2] += v[2]
		r[3] += v[3]
	}
	for ; k < len(g); k++ {
		row[k] += g[k]
	}
}

// neuron is one column's ideal neuron pair and subtracter state during
// the packed walk.
type neuron struct {
	memP, memN float64
	debt, out  int
}

// anyHot reports whether a zero-drive cycle could still fire one of the
// walked columns.
func anyHot(ns []neuron, walk []int, eta float64) bool {
	for _, j := range walk {
		if n := &ns[j]; n.memP >= eta || n.memN >= eta {
			return true
		}
	}
	return false
}

// stepColumns advances the walked columns one cycle under the interleaved
// [P, N] drive row drv. It is the dense kernel's per-column statement
// sequence without data-dependent branches: the fire flags are 0/1
// integers, each membrane subtracts η times its flag, and the subtracter
// pays a positive-side spike out of its debt arithmetically.
func stepColumns(ns []neuron, drv []float64, walk []int, eta float64) {
	for _, j := range walk {
		n := &ns[j]
		mP := n.memP + drv[2*j]
		sp := 0
		if mP >= eta {
			sp = 1
		}
		n.memP = mP - eta*float64(sp)
		mN := n.memN + drv[2*j+1]
		sn := 0
		if mN >= eta {
			sn = 1
		}
		n.memN = mN - eta*float64(sn)
		debt := n.debt + sn
		paid := sp & int(uint(-debt)>>63) // sp && debt > 0; debt is never negative
		n.debt = debt - paid
		n.out += sp - paid
	}
}

// unit is one drive unit of the packed kernel: a firing count and the
// interleaved [P, N] conductance row that fires with it, summed over the
// unit's mult member rows, the first of which is row first.
type unit struct {
	g                  []float64
	count, mult, first int
}

// buildUnits collapses one item's input counts into c.units (see
// simulateCountsPacked).
func (c *Crossbar) buildUnits(counts []int) {
	window, w := c.window, 2*c.cols
	c.units = c.units[:0]
	if !c.exactSums {
		// Inexact conductances: one unit per firing row, ascending row
		// order — the dense accumulation order, preserved bit for bit.
		for i, cnt := range counts {
			if cnt = spike.Clamp(cnt, window); cnt != 0 {
				c.units = append(c.units, unit{g: c.pnG[i*w : (i+1)*w], count: cnt, mult: 1, first: i})
			}
		}
		return
	}
	// Exact-sum conductances: group rows by firing count. Equal counts
	// fire on identical cycles, and integer-valued conductances sum
	// exactly in any order, so a pre-summed group row drives the column
	// bit-identically to its member rows added one by one. Rows firing
	// once stay apart: pre-summing them costs as many adds as it saves.
	// slotUnit maps a count to its unit index + 1 (0 = not seen); only
	// the distinct counts seen are visited after the row scans.
	c.slotUnit = grow(c.slotUnit, window+1)
	groups := 0
	for i, cnt := range counts {
		if cnt = spike.Clamp(cnt, window); cnt == 0 {
			continue
		}
		if u := c.slotUnit[cnt]; u != 0 {
			if c.units[u-1].mult++; c.units[u-1].mult == 2 {
				groups++
			}
			continue
		}
		c.units = append(c.units, unit{g: c.pnG[i*w : (i+1)*w], count: cnt, mult: 1, first: i})
		if cnt > 1 {
			c.slotUnit[cnt] = len(c.units)
		}
	}
	if groups > 0 {
		c.groupBuf = grow(c.groupBuf, groups*w)
		gi := 0
		for k := range c.units {
			if u := &c.units[k]; u.mult > 1 {
				g := c.groupBuf[gi*w : (gi+1)*w]
				copy(g, u.g)
				u.g = g
				gi++
			}
		}
		for i, cnt := range counts {
			if cnt = spike.Clamp(cnt, window); cnt < 2 {
				continue
			}
			if u := c.units[c.slotUnit[cnt]-1]; u.mult > 1 && i != u.first {
				addRow(u.g, c.pnG[i*w:(i+1)*w])
			}
		}
	}
	for _, u := range c.units {
		c.slotUnit[u.count] = 0
	}
}

// classifyProgramming scans the programmed conductances and precomputes
// the packed kernel's structural facts: whether conductance sums are
// exact in any order (every value integer and the worst-case window-long
// column accumulation far below 2^53 — true for ideal programming, where
// conductances are integer level counts; false as soon as programming
// noise produces fractional values), which columns carry any nonzero
// conductance at all, and the train table — the packed Bresenham train
// of every count 0..Γ, Lanes(Γ) words each, so the kernel never
// regenerates a train. The table is looked up here, not on the first
// kernel call, so its one-time build lands in programming.
func (c *Crossbar) classifyProgramming() {
	exact := true
	colSum := make([]float64, c.cols)
	for k, g := range c.pnG {
		if g != math.Trunc(g) {
			exact = false
		}
		colSum[k/2%c.cols] += math.Abs(g)
	}
	var maxColSum float64
	c.allCols = make([]int, c.cols)
	c.activeCols = make([]int, 0, c.cols)
	for j, s := range colSum {
		maxColSum = max(maxColSum, s)
		c.allCols[j] = j
		if s != 0 {
			c.activeCols = append(c.activeCols, j)
		}
	}
	c.exactSums = exact && float64(c.window)*maxColSum < 1<<52
	c.zeroDrive = make([]float64, 2*c.cols)
	c.trainTab = spike.UniformTable(c.window)
}
