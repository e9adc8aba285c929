package spike

import (
	"math/bits"
	"sync"
)

// PackedTrain is a spike train bit-packed into 64-cycle lanes: bit t%64 of
// word t/64 reports a spike in cycle t. It is the storage format behind the
// sparse spiking kernels in internal/xbar — a whole Γ=64 window is one
// machine word, so counting spikes is a popcount and scanning for the next
// spike is a trailing-zeros instruction. Bits at or beyond the window are
// always zero (canonical form); Pack and PackedUniform produce canonical
// trains, and the xbar kernels rely on it.
type PackedTrain []uint64

// Lanes returns the number of 64-bit words needed to hold a window of n
// cycles.
func Lanes(n int) int { return (n + 63) / 64 }

// Pack converts a boolean train to its packed form. The result has
// Lanes(len(t)) words and is canonical.
func Pack(t Train) PackedTrain {
	p := make(PackedTrain, Lanes(len(t)))
	for i, s := range t {
		if s {
			p[i>>6] |= 1 << uint(i&63)
		}
	}
	return p
}

// Unpack expands the packed train back to a boolean train of the given
// window length. Cycles beyond the packed capacity read as no-spike, so
// unpacking into a longer window zero-extends.
func (p PackedTrain) Unpack(window int) Train {
	t := NewTrain(window)
	for i := range t {
		if p.Get(i) {
			t[i] = true
		}
	}
	return t
}

// Count returns the number of spikes — one popcount per lane.
func (p PackedTrain) Count() int {
	n := 0
	for _, w := range p {
		n += bits.OnesCount64(w)
	}
	return n
}

// Get reports whether a spike occurs in cycle t. Out-of-range cycles
// (negative or beyond the packed capacity) read as no-spike.
func (p PackedTrain) Get(t int) bool {
	return t >= 0 && t>>6 < len(p) && p[t>>6]&(1<<uint(t&63)) != 0
}

// Capacity returns the number of cycles the packed train can address —
// always a multiple of 64, at least the window it was packed from.
func (p PackedTrain) Capacity() int { return len(p) * 64 }

// PackedUniform returns the packed form of UniformTrain(count, window)
// without materializing the boolean train. Instead of walking every cycle
// it jumps directly between spikes with the closed form of the Bresenham
// accumulator: from residue acc, the next spike is n = ⌈(window-acc)/count⌉
// cycles away and leaves residue acc + n·count − window. The result is
// bit-identical to Pack(UniformTrain(count, window)) — pinned by
// TestPackedUniformMatchesPack and FuzzPackRoundTrip.
func PackedUniform(count, window int) PackedTrain {
	p := make(PackedTrain, Lanes(window))
	fillUniform(p, Clamp(count, window), window)
	return p
}

// uniformTables memoizes UniformTable per window.
var uniformTables sync.Map // int → []uint64

// UniformTable returns the packed trains of every count 0..window:
// entry c is PackedUniform(c, window), stored at words
// [c·Lanes(window), (c+1)·Lanes(window)). The table is built once per
// window per process and shared; callers must not modify it. The xbar
// packed kernel looks trains up here instead of regenerating them.
func UniformTable(window int) []uint64 {
	if t, ok := uniformTables.Load(window); ok {
		return t.([]uint64)
	}
	lanes := Lanes(window)
	t := make([]uint64, (window+1)*lanes)
	for c := 1; c <= window; c++ {
		fillUniform(t[c*lanes:(c+1)*lanes], c, window)
	}
	shared, _ := uniformTables.LoadOrStore(window, t)
	return shared.([]uint64)
}

// fillUniform ORs the spikes of UniformTrain(count, window) into the
// packed train dst. count must already be clamped to [0, window].
func fillUniform(dst []uint64, count, window int) {
	if count <= 0 {
		return
	}
	acc := 0
	t := -1
	for {
		// Next spike is the smallest n ≥ 1 with acc + n·count ≥ window.
		n := (window - acc + count - 1) / count
		t += n
		if t >= window {
			return
		}
		acc += n*count - window
		dst[t>>6] |= 1 << uint(t&63)
	}
}
