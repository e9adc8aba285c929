// Package place implements VPR-style simulated-annealing placement of a
// function-block netlist onto the FPSA fabric (paper §5.3): the cost is
// signal-weighted half-perimeter wirelength, moves swap blocks or relocate
// them to free sites, and the temperature schedule adapts to the observed
// acceptance rate.
//
// Anneal runs one classic serial schedule; Portfolio runs a multi-seed
// portfolio of independent anneals on a worker pool, cancels runs that
// fall behind the best-so-far at periodic cost checkpoints, and returns
// the cheapest placement — deterministically for any worker count.
package place

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"fpsa/internal/fabric"
	"fpsa/internal/netlist"
)

// Placement maps block IDs to fabric sites.
type Placement struct {
	Chip fabric.Chip
	Pos  []fabric.Site // block ID → site
	occ  []int         // site index → block ID or −1
}

// Random places blocks onto distinct random sites.
func Random(nl *netlist.Netlist, chip fabric.Chip, rng *rand.Rand) (*Placement, error) {
	n := len(nl.Blocks)
	if n > chip.Sites() {
		return nil, fmt.Errorf("place: %d blocks exceed %d sites", n, chip.Sites())
	}
	perm := rng.Perm(chip.Sites())
	p := &Placement{
		Chip: chip,
		Pos:  make([]fabric.Site, n),
		occ:  make([]int, chip.Sites()),
	}
	for i := range p.occ {
		p.occ[i] = -1
	}
	for b := 0; b < n; b++ {
		p.Pos[b] = chip.SiteAt(perm[b])
		p.occ[perm[b]] = b
	}
	return p, nil
}

// Fixed builds a placement from explicit per-block sites (deterministic
// floorplans, tests, imported placements).
func Fixed(nl *netlist.Netlist, chip fabric.Chip, sites []fabric.Site) (*Placement, error) {
	if len(sites) != len(nl.Blocks) {
		return nil, fmt.Errorf("place: %d sites for %d blocks", len(sites), len(nl.Blocks))
	}
	p := &Placement{
		Chip: chip,
		Pos:  append([]fabric.Site(nil), sites...),
		occ:  make([]int, chip.Sites()),
	}
	for i := range p.occ {
		p.occ[i] = -1
	}
	for b, s := range sites {
		if !chip.Valid(s) {
			return nil, fmt.Errorf("place: block %d site %v off chip", b, s)
		}
		idx := chip.Index(s)
		if p.occ[idx] >= 0 {
			return nil, fmt.Errorf("place: blocks %d and %d share site %v", p.occ[idx], b, s)
		}
		p.occ[idx] = b
	}
	return p, nil
}

// Validate checks the one-block-per-site invariant.
func (p *Placement) Validate() error {
	seen := make(map[int]int)
	for b, s := range p.Pos {
		if !p.Chip.Valid(s) {
			return fmt.Errorf("place: block %d at invalid site %v", b, s)
		}
		idx := p.Chip.Index(s)
		if prev, ok := seen[idx]; ok {
			return fmt.Errorf("place: blocks %d and %d share site %v", prev, b, s)
		}
		seen[idx] = b
		if p.occ[idx] != b {
			return fmt.Errorf("place: occupancy table disagrees at site %v", s)
		}
	}
	return nil
}

// netHPWL returns the half-perimeter wirelength of one net.
func netHPWL(p *Placement, net *netlist.Net) int {
	s := p.Pos[net.Src]
	minX, maxX, minY, maxY := s.X, s.X, s.Y, s.Y
	for _, b := range net.Sinks {
		q := p.Pos[b]
		if q.X < minX {
			minX = q.X
		}
		if q.X > maxX {
			maxX = q.X
		}
		if q.Y < minY {
			minY = q.Y
		}
		if q.Y > maxY {
			maxY = q.Y
		}
	}
	return (maxX - minX) + (maxY - minY)
}

// netWeight is one net's annealing weight: its signal bundle width,
// inflated when the net touches a faulted PE. The factor 1 + f/(f+16)
// (f = the largest residual stuck-cell count among the net's blocks) is
// bounded below 2, so fault pressure shortens routes through degraded
// hardware without ever dominating the wirelength objective; unfaulted
// netlists (every Block.Fault zero) keep the classic Signals weight bit
// for bit. The weight depends only on the netlist, never the placement,
// so incremental cost deltas stay exact during annealing.
func netWeight(nl *netlist.Netlist, net *netlist.Net) float64 {
	f := nl.Blocks[net.Src].Fault
	for _, b := range net.Sinks {
		if v := nl.Blocks[b].Fault; v > f {
			f = v
		}
	}
	w := float64(net.Signals)
	if f > 0 {
		w *= 1 + float64(f)/float64(f+16)
	}
	return w
}

// Cost returns the signal-weighted total HPWL (fault-penalized; see
// netWeight).
func Cost(p *Placement, nl *netlist.Netlist) float64 {
	var total float64
	for i := range nl.Nets {
		total += float64(netHPWL(p, &nl.Nets[i])) * netWeight(nl, &nl.Nets[i])
	}
	return total
}

// Options tunes the annealer.
type Options struct {
	// MovesPerTemp is the number of proposed moves at each temperature;
	// 0 selects the VPR default 10·n^{4/3}.
	MovesPerTemp int
	// InitialTempFactor scales the starting temperature relative to the
	// cost standard deviation of random moves (default 20).
	InitialTempFactor float64
}

// Stats reports what the annealer did.
type Stats struct {
	InitialCost float64
	FinalCost   float64
	Temps       int
	Moves       int
	Accepted    int
}

// Anneal improves a random placement with simulated annealing and returns
// it with run statistics. ctx bounds the run: cancellation stops at the
// next temperature step and returns ctx.Err(). An uncancelled run is
// bit-identical for any ctx.
func Anneal(ctx context.Context, nl *netlist.Netlist, chip fabric.Chip, rng *rand.Rand, opts Options) (*Placement, Stats, error) {
	a, err := newAnnealer(nl, chip, rng, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	a.run(ctx, -1)
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	p, stats := a.finish()
	return p, stats, nil
}

// annealer is a resumable annealing run: advance it a bounded number of
// temperature steps at a time with run, inspect CurrentCost between
// segments, and call finish when done. The trajectory depends only on the
// rng the annealer was built with, never on when or from which goroutine
// its segments execute — the property the multi-seed Portfolio relies on
// for determinism.
//
// Move evaluation is incremental, allocation-free and exact: w caches
// every net's weight (netWeight never depends on the placement), hp every
// net's HPWL (updated only when a move commits), and a move re-measures
// only the nets it touches — wide nets usually in O(1) from their cached
// bounding box (see span.shift). HPWL is an integer and the affected nets
// are summed in a fixed order, so every cost delta — and with it every
// RNG draw and accept decision — is bit-identical to recomputing each
// affected net from scratch. The scratch state (mark, aff, newHP, newBB)
// belongs to one annealer and is never shared.
type annealer struct {
	nl     *netlist.Netlist
	rng    *rand.Rand
	netsOf [][]int
	p      *Placement
	// cols and sites cache the chip geometry: fabric.Chip's value-receiver
	// methods would copy the whole chip, device parameters included, on
	// every move.
	cols, sites int
	stats       Stats

	w     []float64 // net → weight
	hp    []int     // net → HPWL at the current placement
	bb    []bbox    // net → bounding box, kept for nets with !scan
	scan  []bool    // net → rescanned on every move (see newAnnealer)
	mark  []int     // net → last move's epoch: epoch if b's only, epoch+1 if other's
	epoch int
	aff   []int  // nets the proposed move touches, deduplicated
	newHP []int  // aff[k]'s HPWL after the proposed move
	newBB []bbox // aff[k]'s bounding box after the proposed move (!scan)

	moves   int
	temp    float64
	minTemp float64
	done    bool
}

// scanPins is the largest net rescanned on every move instead of updated
// from a cached bbox. Most nets have two pins: for them a rescan is a few
// loads, and a moved pin leaves an edge it held alone on most moves, so
// the update would fall back to a rescan anyway. Wide nets (the 14–65-sink
// broadcasts the mapper emits) almost never need one.
const scanPins = 8

// span is one axis of a net's bounding box: the extreme pin coordinates
// and how many pins sit on each — VPR's incremental wirelength state.
type span struct{ lo, hi, nlo, nhi int }

// bbox is a net's pin bounding box.
type bbox struct{ x, y span }

func (b *bbox) hpwl() int { return (b.x.hi - b.x.lo) + (b.y.hi - b.y.lo) }

// netBBox scans a net's pins for its bounding box and edge counts.
func netBBox(p *Placement, net *netlist.Net) bbox {
	s := p.Pos[net.Src]
	bb := bbox{span{s.X, s.X, 1, 1}, span{s.Y, s.Y, 1, 1}}
	for _, b := range net.Sinks {
		q := p.Pos[b]
		bb.x.add(q.X)
		bb.y.add(q.Y)
	}
	return bb
}

// add folds one more pin coordinate into a span being scanned.
func (s *span) add(v int) {
	switch {
	case v < s.lo:
		s.lo, s.nlo = v, 1
	case v == s.lo:
		s.nlo++
	}
	switch {
	case v > s.hi:
		s.hi, s.nhi = v, 1
	case v == s.hi:
		s.nhi++
	}
}

// shift moves one pin from o to n. It reports false when the pin was
// alone on the edge it left: the new edge could be anywhere, and only a
// rescan finds it.
func (s *span) shift(o, n int) bool {
	switch {
	case n < o:
		if o == s.hi {
			if s.nhi == 1 {
				return false
			}
			s.nhi--
		}
		switch {
		case n < s.lo:
			s.lo, s.nlo = n, 1
		case n == s.lo:
			s.nlo++
		}
	case n > o:
		if o == s.lo {
			if s.nlo == 1 {
				return false
			}
			s.nlo--
		}
		switch {
		case n > s.hi:
			s.hi, s.nhi = n, 1
		case n == s.hi:
			s.nhi++
		}
	}
	return true
}

// move is one proposed swap or relocation: block b goes from site index
// from to site index to; other (the block at to, or −1) takes from.
type move struct {
	b, other, from, to int
	fromSite, toSite   fabric.Site
}

// inverse is the move that undoes m.
func (m move) inverse() move {
	m.from, m.to = m.to, m.from
	m.fromSite, m.toSite = m.toSite, m.fromSite
	return m
}

// apply performs a move.
func (p *Placement) apply(m move) {
	p.Pos[m.b] = m.toSite
	p.occ[m.to] = m.b
	if m.other >= 0 {
		p.Pos[m.other] = m.fromSite
	}
	p.occ[m.from] = m.other
}

// newAnnealer builds the initial random placement, probes the starting
// temperature (VPR's recipe: the cost deviation of a sample of random
// moves) and leaves the run ready to step.
func newAnnealer(nl *netlist.Netlist, chip fabric.Chip, rng *rand.Rand, opts Options) (*annealer, error) {
	p, err := Random(nl, chip, rng)
	if err != nil {
		return nil, err
	}
	n := len(nl.Nets)
	a := &annealer{
		nl: nl, rng: rng, p: p, cols: chip.W, sites: chip.Sites(),
		w: make([]float64, n), hp: make([]int, n), bb: make([]bbox, n), scan: make([]bool, n),
		mark: make([]int, n), aff: make([]int, 0, n), newHP: make([]int, n), newBB: make([]bbox, n),
	}
	// Index nets by block for incremental cost evaluation; seen[b] == i+1
	// once block b has been listed under net i. Small nets and nets
	// listing a block twice (span.shift moves one pin per block) skip the
	// bounding-box update and are rescanned on every move.
	a.netsOf = make([][]int, len(nl.Blocks))
	seen := make([]int, len(nl.Blocks))
	for i := range nl.Nets {
		net := &nl.Nets[i]
		a.scan[i] = 1+len(net.Sinks) <= scanPins
		for k := -1; k < len(net.Sinks); k++ {
			b := net.Src
			if k >= 0 {
				b = net.Sinks[k]
			}
			if seen[b] == i+1 {
				a.scan[i] = true
				continue
			}
			seen[b] = i + 1
			a.netsOf[b] = append(a.netsOf[b], i)
		}
		a.w[i] = netWeight(nl, net)
		a.hp[i] = netHPWL(p, net)
		if !a.scan[i] {
			a.bb[i] = netBBox(p, net)
		}
	}
	cost := a.cost()
	a.stats = Stats{InitialCost: cost}
	if n == 0 || len(nl.Blocks) < 2 {
		a.done = true
		return a, nil
	}

	a.moves = opts.MovesPerTemp
	if a.moves <= 0 {
		a.moves = int(10 * math.Pow(float64(len(nl.Blocks)), 4.0/3.0))
		if a.moves > 20000 {
			a.moves = 20000
		}
	}
	tempFactor := opts.InitialTempFactor
	if tempFactor <= 0 {
		tempFactor = 20
	}
	var sumSq, sum float64
	const probes = 64
	for i := 0; i < probes; i++ {
		_, d := a.propose()
		d = math.Abs(d)
		sum += d
		sumSq += d * d
	}
	std := math.Sqrt(math.Max(0, sumSq/probes-(sum/probes)*(sum/probes)))
	a.temp = tempFactor * (std + 1)
	a.minTemp = 0.001 * (cost/float64(n) + 1)
	if a.temp <= a.minTemp {
		a.done = true
	}
	return a, nil
}

// step runs one temperature: a full move batch plus adaptive cooling.
func (a *annealer) step() {
	if a.done {
		return
	}
	accepted := 0
	for m := 0; m < a.moves; m++ {
		mv, delta := a.propose()
		if delta <= 0 || a.rng.Float64() < math.Exp(-delta/a.temp) {
			a.commit(mv)
			accepted++
			a.stats.Accepted++
		}
		a.stats.Moves++
	}
	// VPR-style adaptive cooling: cool faster when acceptance is
	// extreme, slower in the productive 15-95% band.
	rate := float64(accepted) / float64(a.moves)
	switch {
	case rate > 0.96:
		a.temp *= 0.5
	case rate > 0.8:
		a.temp *= 0.9
	case rate > 0.15:
		a.temp *= 0.95
	default:
		a.temp *= 0.8
	}
	a.stats.Temps++
	if a.temp <= a.minTemp || a.stats.Temps > 300 {
		a.done = true
	}
}

// run advances up to maxSteps temperatures (negative = to completion),
// checking ctx between temperatures: a cancelled run stops early with
// its placement frozen mid-anneal. The check never touches the rng, so
// an uncancelled run's trajectory is unchanged.
func (a *annealer) run(ctx context.Context, maxSteps int) {
	for i := 0; !a.done && (maxSteps < 0 || i < maxSteps); i++ {
		if ctx.Err() != nil {
			return
		}
		a.step()
	}
}

// cost sums the cached per-net costs in net order: bit-identical to
// Cost(a.p, a.nl) without rescanning any pins.
func (a *annealer) cost() float64 {
	var total float64
	for i, h := range a.hp {
		total += float64(h) * a.w[i]
	}
	return total
}

// CurrentCost is the exact current cost — the checkpoint metric
// Portfolio ranks runs by.
func (a *annealer) CurrentCost() float64 { return a.cost() }

// finish returns the placement with final statistics.
func (a *annealer) finish() (*Placement, Stats) {
	a.stats.FinalCost = a.cost()
	return a.p, a.stats
}

// propose picks a random block and a random target site (occupied →
// swap, free → relocate) and returns the move with its exact cost delta,
// leaving aff, newHP and newBB ready for commit. The placement is unchanged.
func (a *annealer) propose() (move, float64) {
	p := a.p
	b := a.rng.Intn(len(p.Pos))
	to := a.rng.Intn(a.sites)
	from := p.Pos[b]
	mv := move{
		b: b, other: p.occ[to],
		from: from.Y*a.cols + from.X, to: to, // fabric.Chip.Index / SiteAt
		fromSite: from, toSite: fabric.Site{X: to % a.cols, Y: to / a.cols},
	}
	a.aff = a.aff[:0]
	if mv.other == b {
		return mv, 0
	}
	// The affected nets, deduplicated in order: b's nets, then the new
	// ones among other's. A net holding both is re-marked epoch+1.
	a.epoch += 2
	for _, i := range a.netsOf[b] {
		a.mark[i] = a.epoch
		a.aff = append(a.aff, i)
	}
	nb := len(a.aff)
	if mv.other >= 0 {
		for _, i := range a.netsOf[mv.other] {
			if a.mark[i] != a.epoch {
				a.aff = append(a.aff, i)
			}
			a.mark[i] = a.epoch + 1
		}
	}
	var before, after float64
	for _, i := range a.aff {
		before += float64(a.hp[i]) * a.w[i]
	}
	p.apply(mv)
	for k, i := range a.aff {
		h := a.hp[i]
		if a.scan[i] {
			h = netHPWL(p, &a.nl.Nets[i])
		} else if a.mark[i] == a.epoch || k >= nb {
			// One pin moves: b's to the target, or other's to b's old
			// site. (A net holding both just trades two pins' sites;
			// its box is unchanged.)
			o, n := mv.fromSite, mv.toSite
			if k >= nb {
				o, n = n, o
			}
			bb := a.bb[i]
			if !bb.x.shift(o.X, n.X) || !bb.y.shift(o.Y, n.Y) {
				bb = netBBox(p, &a.nl.Nets[i])
			}
			a.newBB[k] = bb
			h = bb.hpwl()
		} else {
			a.newBB[k] = a.bb[i]
		}
		a.newHP[k] = h
		after += float64(h) * a.w[i]
	}
	p.apply(mv.inverse())
	return mv, after - before
}

// commit applies the move propose just returned and adopts its nets'
// new wirelengths and bounding boxes.
func (a *annealer) commit(mv move) {
	a.p.apply(mv)
	for k, i := range a.aff {
		a.hp[i] = a.newHP[k]
		if !a.scan[i] {
			a.bb[i] = a.newBB[k]
		}
	}
}
