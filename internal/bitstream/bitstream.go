// Package bitstream generates the FPSA Configuration — the final artifact
// of the paper's system stack (Figure 5: Placement & Routing → FPSA
// Configuration). The configuration is the set of programmed ReRAM cells
// in the mrFPGA routing layer: switch-box cells joining channel tracks of
// adjacent segments, and connection-box cells attaching block pins to
// channel tracks (paper §4.1: "the connections in SBs and CBs are decided
// by the resistance of the ReRAM cells ... low resistance is a pass").
//
// Because mrFPGA switch boxes are themselves ReRAM crossbars, any track
// can connect to any track, so track assignment is per-channel first-fit.
// The package also provides an independent Verify that interprets only
// the programmed cells — reconstructing per-signal electrical paths — to
// prove each net's source reaches every sink with no shorts between nets.
package bitstream

import (
	"fmt"
	"slices"

	"fpsa/internal/fabric"
	"fpsa/internal/netlist"
	"fpsa/internal/place"
	"fpsa/internal/route"
)

// SBCell is one programmed switch-box ReRAM cell: it joins track ta of
// channel node a with track tb of channel node b for one signal.
type SBCell struct {
	NodeA, TrackA int
	NodeB, TrackB int
	Net, Signal   int
}

// CBCell is one programmed connection-box ReRAM cell: it attaches a block
// pin (net signal) to a channel-node track at the block's site.
type CBCell struct {
	Block       int
	Node, Track int
	Net, Signal int
	Source      bool // true: block drives the track; false: block listens
}

// Config is the complete chip configuration for one routed netlist.
type Config struct {
	Chip    fabric.Chip
	Nets    int
	SBCells []SBCell
	CBCells []CBCell
	// tracks[node][track] = net index + 1 (0 = free); retained for
	// verification and occupancy stats.
	tracks [][]int32
}

// Generate programs the fabric for a converged routing result.
func Generate(nl *netlist.Netlist, pl *place.Placement, res *route.Result, chip fabric.Chip) (*Config, error) {
	if !res.Converged {
		return nil, fmt.Errorf("bitstream: routing did not converge; no legal configuration exists at %d tracks", chip.Tracks)
	}
	nodes := 2 * chip.W * chip.H
	cfg := &Config{Chip: chip, Nets: len(nl.Nets), tracks: make([][]int32, nodes)}
	flat := make([]int32, nodes*chip.Tracks)
	for i := range cfg.tracks {
		cfg.tracks[i] = flat[i*chip.Tracks : (i+1)*chip.Tracks : (i+1)*chip.Tracks]
	}
	// Size both cell lists exactly: every tree hop programs one SB cell
	// per signal; the source attaches on every tree node at its site and
	// each sink on one.
	var nSB, nCB int
	for ni := range nl.Nets {
		net := &nl.Nets[ni]
		srcNodes := 0
		for _, node := range res.NetRoutes[ni] {
			if _, s := route.NodeSite(chip, node); s == pl.Pos[net.Src] {
				srcNodes++
			}
		}
		nSB += len(res.NetEdges[ni]) * net.Signals
		nCB += (srcNodes + len(net.Sinks)) * net.Signals
	}
	cfg.SBCells = make([]SBCell, 0, nSB)
	cfg.CBCells = make([]CBCell, 0, nCB)

	// picks[p*signals+s] is the track signal s takes on the tree node at
	// position p of the net's route; pos maps a node to that position
	// (its last one, should a route list a node twice) and onNet stamps
	// the current net's nodes.
	var picks []int
	pos := make([]int32, nodes)
	onNet := make([]int32, nodes)
	for ni := range nl.Nets {
		net := &nl.Nets[ni]
		tree := res.NetRoutes[ni]
		stamp := int32(ni + 1)
		tracksAt := func(node int) []int {
			p := int(pos[node]) * net.Signals
			return picks[p : p+net.Signals]
		}
		// Assign `signals` tracks on every tree node, first-fit.
		picks = slices.Grow(picks[:0], len(tree)*net.Signals)[:len(tree)*net.Signals]
		for p, node := range tree {
			row, n := cfg.tracks[node], 0
			for t := 0; t < chip.Tracks && n < net.Signals; t++ {
				if row[t] == 0 {
					row[t] = stamp
					picks[p*net.Signals+n] = t
					n++
				}
			}
			if n < net.Signals {
				return nil, fmt.Errorf("bitstream: net %d needs %d tracks on node %d, found %d free",
					ni, net.Signals, node, n)
			}
			pos[node], onNet[node] = int32(p), stamp
		}
		// Switch-box cells along every tree hop, one per signal.
		for _, e := range res.NetEdges[ni] {
			if onNet[e.A] != stamp || onNet[e.B] != stamp {
				return nil, fmt.Errorf("bitstream: net %d hop %d-%d leaves its route tree", ni, e.A, e.B)
			}
			ta, tb := tracksAt(e.A), tracksAt(e.B)
			for s := 0; s < net.Signals; s++ {
				cfg.SBCells = append(cfg.SBCells, SBCell{
					NodeA: e.A, TrackA: ta[s],
					NodeB: e.B, TrackB: tb[s],
					Net: ni, Signal: s,
				})
			}
		}
		// Connection-box cells: the source block drives the tree nodes
		// at its own site; each sink block listens on one tree node at
		// its site.
		srcSite := pl.Pos[net.Src]
		srcDone := false
		for _, node := range tree {
			if _, s := route.NodeSite(chip, node); s == srcSite {
				for k, t := range tracksAt(node) {
					cfg.CBCells = append(cfg.CBCells, CBCell{
						Block: net.Src, Node: node, Track: t, Net: ni, Signal: k, Source: true,
					})
				}
				srcDone = true
			}
		}
		if !srcDone {
			return nil, fmt.Errorf("bitstream: net %d has no tree node at its source site", ni)
		}
		for _, sink := range net.Sinks {
			site := pl.Pos[sink]
			attached := false
			for _, node := range tree {
				if _, s := route.NodeSite(chip, node); s == site {
					for k, t := range tracksAt(node) {
						cfg.CBCells = append(cfg.CBCells, CBCell{
							Block: sink, Node: node, Track: t, Net: ni, Signal: k, Source: false,
						})
					}
					attached = true
					break
				}
			}
			if !attached {
				return nil, fmt.Errorf("bitstream: net %d has no tree node at sink block %d's site", ni, sink)
			}
		}
	}
	return cfg, nil
}

// CellCount returns the number of programmed (low-resistance) ReRAM cells
// — the configuration's size.
func (c *Config) CellCount() int { return len(c.SBCells) + len(c.CBCells) }

// TrackOccupancy returns the busiest channel's used-track count.
func (c *Config) TrackOccupancy() int {
	max := 0
	for _, node := range c.tracks {
		used := 0
		for _, t := range node {
			if t != 0 {
				used++
			}
		}
		if used > max {
			max = used
		}
	}
	return max
}

// Verify interprets the programmed cells only — no routing data — and
// checks electrical correctness:
//
//  1. no two nets share a (channel node, track) — no shorts;
//  2. for every net, every listening CB cell is reachable from a driving
//     CB cell through programmed SB cells (per-net connectivity);
//  3. every net has at least one driver and the expected listener count.
//
// Check 1 holds by construction: the track array stores exactly one owner
// per slot, so a slot cannot be claimed by two nets, and ownership is read
// straight from it (an out-of-range node or track is unowned, −1). Slots
// are indexed densely as node*stride+track, so the union-find and the
// per-net grouping of CB cells run over flat slices; the allocation count
// does not depend on the cell count.
func (c *Config) Verify(nl *netlist.Netlist) error {
	stride := 0
	for _, row := range c.tracks {
		stride = max(stride, len(row))
	}
	// own reports a slot's net, or −1 when the slot is unprogrammed.
	own := func(node, track int) int {
		if node < 0 || node >= len(c.tracks) || track < 0 || track >= len(c.tracks[node]) {
			return -1
		}
		return int(c.tracks[node][track] - 1)
	}
	// Union-find over slots, seeded by SB cells; all driver slots of a
	// net are additionally merged (they share the source block's output
	// pin through its CB). parent holds the parent slot plus one, 0 for a
	// root. Every union joins two slots of one net, so each component has
	// a single owner; unions among unowned slots (a cell of net −1) could
	// never reach a checked net and are skipped.
	parent := make([]int32, len(c.tracks)*stride)
	find := func(x int32) int32 {
		r := x
		for parent[r] != 0 {
			r = parent[r] - 1
		}
		for x != r {
			next := parent[x] - 1
			parent[x] = r + 1
			x = next
		}
		return r
	}
	union := func(a, b int32) {
		if ra, rb := find(a), find(b); ra != rb {
			parent[ra] = rb + 1
		}
	}
	slot := func(node, track int) int32 { return int32(node*stride + track) }
	for _, cell := range c.SBCells {
		if got := own(cell.NodeA, cell.TrackA); got != cell.Net {
			return fmt.Errorf("bitstream: SB cell of net %d drives foreign track (owner %d)", cell.Net, got)
		}
		if got := own(cell.NodeB, cell.TrackB); got != cell.Net {
			return fmt.Errorf("bitstream: SB cell of net %d reaches foreign track (owner %d)", cell.Net, got)
		}
		if cell.Net >= 0 {
			union(slot(cell.NodeA, cell.TrackA), slot(cell.NodeB, cell.TrackB))
		}
	}
	// Group CB cells by (net, role) with a stable counting sort: group
	// 2·net holds the net's driver slots, 2·net+1 its listener slots,
	// each in cell order. Cells of nets outside the netlist are never
	// checked, as before.
	nets := len(nl.Nets)
	group := func(cell *CBCell) int {
		if cell.Net < 0 || cell.Net >= nets {
			return -1
		}
		if cell.Source {
			return 2 * cell.Net
		}
		return 2*cell.Net + 1
	}
	// off[g+2] counts group g; after the prefix sum off[g+1] is where g
	// starts, and filling advances it to where g ends, so group g ends up
	// at slots[off[g]:off[g+1]].
	off := make([]int, 2*nets+2)
	for i := range c.CBCells {
		cell := &c.CBCells[i]
		if got := own(cell.Node, cell.Track); got != cell.Net {
			return fmt.Errorf("bitstream: CB cell of net %d attached to foreign track (owner %d)", cell.Net, got)
		}
		if g := group(cell); g >= 0 {
			off[g+2]++
		}
	}
	for g := 1; g < len(off); g++ {
		off[g] += off[g-1]
	}
	slots := make([]int32, off[len(off)-1])
	for i := range c.CBCells {
		cell := &c.CBCells[i]
		if g := group(cell); g >= 0 {
			slots[off[g+1]] = slot(cell.Node, cell.Track)
			off[g+1]++
		}
	}
	for ni := range nl.Nets {
		ds := slots[off[2*ni]:off[2*ni+1]]
		ls := slots[off[2*ni+1]:off[2*ni+2]]
		if len(ds) == 0 {
			return fmt.Errorf("bitstream: net %d has no driver", ni)
		}
		for _, d := range ds[1:] {
			union(ds[0], d) // joined at the source block's pins
		}
		want := len(nl.Nets[ni].Sinks) * nl.Nets[ni].Signals
		if got := len(ls); got != want {
			return fmt.Errorf("bitstream: net %d has %d listener cells, want %d", ni, got, want)
		}
		root := find(ds[0])
		for _, l := range ls {
			if find(l) != root {
				return fmt.Errorf("bitstream: net %d listener at node %d track %d unreachable from source",
					ni, int(l)/stride, int(l)%stride)
			}
		}
	}
	return nil
}

// CorruptSBCell clears one programmed switch cell (fault-injection tests).
func (c *Config) CorruptSBCell(i int) {
	if i >= 0 && i < len(c.SBCells) {
		c.SBCells = append(c.SBCells[:i], c.SBCells[i+1:]...)
	}
}
