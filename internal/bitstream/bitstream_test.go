package bitstream

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"fpsa/internal/device"
	"fpsa/internal/fabric"
	"fpsa/internal/mapper"
	"fpsa/internal/models"
	"fpsa/internal/netlist"
	"fpsa/internal/place"
	"fpsa/internal/route"
	"fpsa/internal/synth"
)

// routedFixture builds, places and routes a small random netlist.
func routedFixture(t *testing.T, seed int64, blocks, nets, maxSignals int) (*netlist.Netlist, *place.Placement, *route.Result, fabric.Chip) {
	t.Helper()
	nl, pl, res, chip, err := buildFixture(seed, blocks, nets, maxSignals)
	if err != nil {
		t.Fatal(err)
	}
	return nl, pl, res, chip
}

func buildFixture(seed int64, blocks, nets, maxSignals int) (*netlist.Netlist, *place.Placement, *route.Result, fabric.Chip, error) {
	rng := rand.New(rand.NewSource(seed))
	nl := &netlist.Netlist{Name: "fixture"}
	for i := 0; i < blocks; i++ {
		nl.AddBlock(netlist.BlockPE, "b", i, 0)
	}
	for i := 0; i < nets; i++ {
		src := rng.Intn(blocks)
		sink := rng.Intn(blocks)
		for sink == src {
			sink = rng.Intn(blocks)
		}
		sinks := []int{sink}
		if rng.Intn(3) == 0 {
			extra := rng.Intn(blocks)
			if extra != src && extra != sink {
				sinks = append(sinks, extra)
			}
		}
		nl.AddNet(src, sinks, 1+rng.Intn(maxSignals))
	}
	chip, err := fabric.SizeFor(blocks, 256, device.Params45nm)
	if err != nil {
		return nil, nil, nil, chip, err
	}
	pl, _, err := place.Anneal(context.Background(), nl, chip, rng, place.Options{MovesPerTemp: 300})
	if err != nil {
		return nil, nil, nil, chip, err
	}
	res, err := route.Route(context.Background(), nl, pl, chip, route.Options{})
	if err != nil {
		return nil, nil, nil, chip, err
	}
	if !res.Converged {
		return nil, nil, nil, chip, fmt.Errorf("fixture %d routing did not converge", seed)
	}
	return nl, pl, res, chip, nil
}

func TestGenerateAndVerify(t *testing.T) {
	nl, pl, res, chip := routedFixture(t, 21, 24, 30, 16)
	cfg, err := Generate(nl, pl, res, chip)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CellCount() == 0 {
		t.Fatal("empty configuration")
	}
	if err := cfg.Verify(nl); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
	if occ := cfg.TrackOccupancy(); occ > chip.Tracks {
		t.Errorf("occupancy %d exceeds %d tracks", occ, chip.Tracks)
	}
}

func TestGenerateRejectsUnconverged(t *testing.T) {
	nl, pl, res, chip := routedFixture(t, 22, 8, 6, 4)
	res.Converged = false
	if _, err := Generate(nl, pl, res, chip); err == nil {
		t.Error("unconverged routing accepted")
	}
}

func TestVerifyDetectsCorruptedSwitch(t *testing.T) {
	nl, pl, res, chip := routedFixture(t, 23, 24, 30, 8)
	cfg, err := Generate(nl, pl, res, chip)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.SBCells) == 0 {
		t.Skip("no SB hops in this fixture")
	}
	// Clearing any switch cell must break a signal path (fault
	// injection: a stuck-high-resistance ReRAM switch).
	cfg.CorruptSBCell(len(cfg.SBCells) / 2)
	err = cfg.Verify(nl)
	if err == nil {
		t.Fatal("corrupted configuration verified clean")
	}
	if !strings.Contains(err.Error(), "unreachable") {
		t.Logf("corruption surfaced as: %v", err)
	}
}

func TestVerifyDetectsForeignTrackSwitch(t *testing.T) {
	// A misprogrammed SB cell reaching into an unowned (or foreign)
	// track must fail verification — the electrical-shorts class of
	// configuration bugs.
	nl, pl, res, chip := routedFixture(t, 24, 16, 16, 4)
	cfg, err := Generate(nl, pl, res, chip)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.SBCells) == 0 {
		t.Skip("no SB cells in fixture")
	}
	cfg.SBCells[0].TrackA = cfg.Chip.Tracks - 1 // last track: free in this small fixture
	if err := cfg.Verify(nl); err == nil {
		t.Error("foreign-track SB cell verified clean")
	}
}

func TestCellCountScalesWithSignals(t *testing.T) {
	nlA, plA, resA, chipA := routedFixture(t, 25, 12, 10, 2)
	cfgA, err := Generate(nlA, plA, resA, chipA)
	if err != nil {
		t.Fatal(err)
	}
	nlB, plB, resB, chipB := routedFixture(t, 25, 12, 10, 32)
	cfgB, err := Generate(nlB, plB, resB, chipB)
	if err != nil {
		t.Fatal(err)
	}
	if cfgB.CellCount() <= cfgA.CellCount() {
		t.Errorf("wider buses did not grow the configuration: %d vs %d", cfgA.CellCount(), cfgB.CellCount())
	}
}

// cellDigest is an FNV-1a hash of a configuration's SB and CB cell
// sequences (every field, in order) and its track occupancy: any change to
// which cells Generate programs, or in what order, changes it.
func cellDigest(c *Config) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(len(c.SBCells))
	for _, s := range c.SBCells {
		put(s.NodeA)
		put(s.TrackA)
		put(s.NodeB)
		put(s.TrackB)
		put(s.Net)
		put(s.Signal)
	}
	put(len(c.CBCells))
	for _, cb := range c.CBCells {
		src := 0
		if cb.Source {
			src = 1
		}
		put(cb.Block)
		put(cb.Node)
		put(cb.Track)
		put(cb.Net)
		put(cb.Signal)
		put(src)
	}
	put(c.TrackOccupancy())
	return h.Sum64()
}

// goldenFixtures are the routed fixtures the unit tests use, with the
// cell digest, cell count and occupancy their configurations had before
// Generate was last rewritten.
var goldenFixtures = []struct {
	seed                     int64
	blocks, nets, maxSignals int
	digest                   uint64
	cells, occupancy         int
}{
	{21, 24, 30, 16, 0x6fb15eb62b3ea278, 1498, 73},
	{23, 24, 30, 8, 0x766742dbb6da44fb, 713, 23},
	{24, 16, 16, 4, 0x258d7f708c2fa0f2, 184, 12},
	{25, 12, 10, 2, 0x90502249fbd96525, 59, 4},
	{25, 12, 10, 32, 0x9bb7904923084f18, 972, 78},
}

// TestGenerateGolden pins Generate's output on the fixtures exactly.
func TestGenerateGolden(t *testing.T) {
	for _, g := range goldenFixtures {
		nl, pl, res, chip := routedFixture(t, g.seed, g.blocks, g.nets, g.maxSignals)
		cfg, err := Generate(nl, pl, res, chip)
		if err != nil {
			t.Fatal(err)
		}
		if d, n, occ := cellDigest(cfg), cfg.CellCount(), cfg.TrackOccupancy(); d != g.digest || n != g.cells || occ != g.occupancy {
			t.Errorf("fixture %d/%d/%d/%d: digest %#x, %d cells, occupancy %d; want %#x, %d, %d",
				g.seed, g.blocks, g.nets, g.maxSignals, d, n, occ, g.digest, g.cells, g.occupancy)
		}
	}
}

// verifyReference is the map-based verifier Verify replaced, kept as the
// oracle Verify must agree with: ownership in a map keyed by slot, a
// recursive union-find over a map, and CB cells grouped per net in maps.
func verifyReference(c *Config, nl *netlist.Netlist) error {
	type slot struct{ node, track int }
	owner := make(map[slot]int)
	for node, tracks := range c.tracks {
		for t, netPlus := range tracks {
			if netPlus == 0 {
				continue
			}
			s := slot{node, t}
			if prev, ok := owner[s]; ok && prev != int(netPlus-1) {
				return fmt.Errorf("bitstream: short at node %d track %d", node, t)
			}
			owner[s] = int(netPlus - 1)
		}
	}
	own := func(s slot) int {
		if o, ok := owner[s]; ok {
			return o
		}
		return -1
	}
	parent := make(map[slot]slot)
	var find func(s slot) slot
	find = func(s slot) slot {
		p, ok := parent[s]
		if !ok || p == s {
			parent[s] = s
			return s
		}
		r := find(p)
		parent[s] = r
		return r
	}
	union := func(a, b slot) { parent[find(a)] = find(b) }
	for _, cell := range c.SBCells {
		if got := own(slot{cell.NodeA, cell.TrackA}); got != cell.Net {
			return fmt.Errorf("bitstream: SB cell of net %d drives foreign track (owner %d)", cell.Net, got)
		}
		if got := own(slot{cell.NodeB, cell.TrackB}); got != cell.Net {
			return fmt.Errorf("bitstream: SB cell of net %d reaches foreign track (owner %d)", cell.Net, got)
		}
		union(slot{cell.NodeA, cell.TrackA}, slot{cell.NodeB, cell.TrackB})
	}
	drivers := make(map[int][]slot)
	listeners := make(map[int][]slot)
	for _, cell := range c.CBCells {
		s := slot{cell.Node, cell.Track}
		if got := own(s); got != cell.Net {
			return fmt.Errorf("bitstream: CB cell of net %d attached to foreign track (owner %d)", cell.Net, got)
		}
		if cell.Source {
			drivers[cell.Net] = append(drivers[cell.Net], s)
		} else {
			listeners[cell.Net] = append(listeners[cell.Net], s)
		}
	}
	for ni := range nl.Nets {
		ds := drivers[ni]
		if len(ds) == 0 {
			return fmt.Errorf("bitstream: net %d has no driver", ni)
		}
		for _, d := range ds[1:] {
			union(ds[0], d)
		}
		want := len(nl.Nets[ni].Sinks) * nl.Nets[ni].Signals
		if got := len(listeners[ni]); got != want {
			return fmt.Errorf("bitstream: net %d has %d listener cells, want %d", ni, got, want)
		}
		root := find(ds[0])
		for _, l := range listeners[ni] {
			if find(l) != root {
				return fmt.Errorf("bitstream: net %d listener at node %d track %d unreachable from source",
					ni, l.node, l.track)
			}
		}
	}
	return nil
}

// clone deep-copies a configuration so corruptions stay local.
func clone(c *Config) *Config {
	d := *c
	d.SBCells = slices.Clone(c.SBCells)
	d.CBCells = slices.Clone(c.CBCells)
	d.tracks = make([][]int32, len(c.tracks))
	for i, row := range c.tracks {
		d.tracks[i] = slices.Clone(row)
	}
	return &d
}

// Corruption kinds applied by corrupt.
const (
	dropSB = iota
	retargetSB
	retargetCB
	renetCB
	dropCB
	clearTrack
	outOfRange
	corruptionKinds
)

// corrupt applies one corruption of the given kind to c; idx picks the
// cell or slot and v the variant. Retargets land on an arbitrary slot for
// even v and on a slot of the cell's own net for odd v, so both the
// ownership and the reachability checks get exercised.
func corrupt(c *Config, kind, idx, v int) {
	nodes, tracks := len(c.tracks), c.Chip.Tracks
	if nodes == 0 || tracks == 0 || c.Nets == 0 {
		return
	}
	// find returns the first slot from idx on that ok accepts.
	find := func(ok func(owner int32) bool) (int, int) {
		for k := 0; k < nodes*tracks; k++ {
			s := (idx + k) % (nodes * tracks)
			if ok(c.tracks[s/tracks][s%tracks]) {
				return s / tracks, s % tracks
			}
		}
		return 0, 0
	}
	slotOf := func(net int) (int, int) {
		if v%2 == 0 {
			return (idx / tracks) % nodes, (idx + v) % tracks
		}
		return find(func(o int32) bool { return o == int32(net+1) })
	}
	sb := func() *SBCell { return &c.SBCells[idx%len(c.SBCells)] }
	cb := func() *CBCell { return &c.CBCells[idx%len(c.CBCells)] }
	switch {
	case kind == dropSB && len(c.SBCells) > 0:
		c.CorruptSBCell(idx % len(c.SBCells))
	case kind == retargetSB && len(c.SBCells) > 0:
		cell := sb()
		if v/2%2 == 0 {
			cell.NodeA, cell.TrackA = slotOf(cell.Net)
		} else {
			cell.NodeB, cell.TrackB = slotOf(cell.Net)
		}
	case kind == retargetCB && len(c.CBCells) > 0:
		cell := cb()
		cell.Node, cell.Track = slotOf(cell.Net)
	case kind == renetCB && len(c.CBCells) > 0:
		cb().Net = v%(c.Nets+2) - 1 // −1 … Nets
	case kind == dropCB && len(c.CBCells) > 0:
		c.CBCells = slices.Delete(c.CBCells, idx%len(c.CBCells), idx%len(c.CBCells)+1)
	case kind == clearTrack:
		node, t := slotOf(idx % c.Nets)
		c.tracks[node][t] = 0
	case kind == outOfRange:
		// An out-of-range slot is unowned. For v/8 even the cell also
		// claims net −1, which unowned slots match, so the SB cell's
		// other end moves to a free slot and the cell passes the
		// ownership checks.
		bad := []int{-1, -idx - 1, nodes, nodes + idx, -1, -idx - 1, tracks, tracks + idx}[v%8]
		claim := v/8%2 == 0
		if v/16%2 == 0 && len(c.SBCells) > 0 {
			cell := sb()
			if v%8 < 4 {
				cell.NodeA = bad
			} else {
				cell.TrackA = bad
			}
			if claim {
				cell.NodeB, cell.TrackB = find(func(o int32) bool { return o == 0 })
				cell.Net = -1
			}
		} else if len(c.CBCells) > 0 {
			cell := cb()
			if v%8 < 4 {
				cell.Node = bad
			} else {
				cell.Track = bad
			}
			if claim {
				cell.Net = -1
			}
		}
	}
}

// verifyFixtures are generated once and shared by the equivalence test
// and the fuzz target.
var verifyFixtures = sync.OnceValues(func() ([]*Config, []*netlist.Netlist) {
	var cfgs []*Config
	var nls []*netlist.Netlist
	for _, g := range goldenFixtures {
		nl, pl, res, chip, err := buildFixture(g.seed, g.blocks, g.nets, g.maxSignals)
		if err != nil {
			panic(err)
		}
		cfg, err := Generate(nl, pl, res, chip)
		if err != nil {
			panic(err)
		}
		cfgs = append(cfgs, cfg)
		nls = append(nls, nl)
	}
	return cfgs, nls
})

// checkSameVerdict fails unless Verify and the reference agree exactly.
func checkSameVerdict(t *testing.T, c *Config, nl *netlist.Netlist, what string) {
	t.Helper()
	got, want := c.Verify(nl), verifyReference(c, nl)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: Verify = %v, reference = %v", what, got, want)
	}
}

// TestVerifyMatchesReference: on every fixture, clean and under seeded
// random corruptions (one to three at a time), Verify returns exactly the
// reference verifier's error string, or nil when it does.
func TestVerifyMatchesReference(t *testing.T) {
	cfgs, nls := verifyFixtures()
	rng := rand.New(rand.NewSource(14))
	failures := make([]int, corruptionKinds)
	for fi, cfg := range cfgs {
		checkSameVerdict(t, cfg, nls[fi], fmt.Sprintf("fixture %d clean", fi))
		if err := cfg.Verify(nls[fi]); err != nil {
			t.Fatalf("fixture %d: clean configuration failed: %v", fi, err)
		}
		for trial := 0; trial < 300; trial++ {
			c := clone(cfg)
			var ops []string
			for n := 1 + rng.Intn(3); n > 0; n-- {
				kind, idx, v := rng.Intn(corruptionKinds), rng.Intn(1<<16), rng.Intn(256)
				corrupt(c, kind, idx, v)
				ops = append(ops, fmt.Sprintf("%d/%d/%d", kind, idx, v))
				if n == 1 && c.Verify(nls[fi]) != nil {
					failures[kind]++
				}
			}
			checkSameVerdict(t, c, nls[fi], fmt.Sprintf("fixture %d corruptions %v", fi, ops))
		}
	}
	// Every corruption kind must have produced rejected configurations,
	// or the comparison above would say little about it.
	for kind, n := range failures {
		if n == 0 {
			t.Errorf("corruption kind %d never made Verify fail", kind)
		}
	}
}

// FuzzVerifyMatchesReference drives the same corruptions from fuzz input:
// every four bytes of ops are one corruption (kind, 16-bit index, value)
// applied to the fixture chosen by fixture. The committed corpus under
// testdata/fuzz holds one case per corruption kind.
func FuzzVerifyMatchesReference(f *testing.F) {
	cfgs, nls := verifyFixtures()
	f.Fuzz(func(t *testing.T, fixture uint8, ops []byte) {
		fi := int(fixture) % len(cfgs)
		c := clone(cfgs[fi])
		for ; len(ops) >= 4; ops = ops[4:] {
			corrupt(c, int(ops[0])%corruptionKinds, int(ops[1])|int(ops[2])<<8, int(ops[3]))
		}
		checkSameVerdict(t, c, nls[fi], "fuzzed corruption")
	})
}

// TestVerifyAllocsConstant: Verify's allocation count is the same on the
// smallest and the largest fixture — it does not grow with cell count.
func TestVerifyAllocsConstant(t *testing.T) {
	cfgs, nls := verifyFixtures()
	small, large := 0, 0
	for i, c := range cfgs {
		if c.CellCount() < cfgs[small].CellCount() {
			small = i
		}
		if c.CellCount() > cfgs[large].CellCount() {
			large = i
		}
	}
	allocs := func(i int) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := cfgs[i].Verify(nls[i]); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := allocs(small), allocs(large)
	t.Logf("Verify allocs: %v at %d cells, %v at %d cells", a, cfgs[small].CellCount(), b, cfgs[large].CellCount())
	if a != b || b > 3 {
		t.Errorf("Verify allocates %v at %d cells and %v at %d cells; want the same count, at most 3",
			a, cfgs[small].CellCount(), b, cfgs[large].CellCount())
	}
}

// cifarRouted places and routes CIFAR-VGG17 the way a default compile
// does (duplication 1, default tracks), with one annealing run: a
// full-size routed design for the benchmarks.
var cifarRouted = sync.OnceValues(func() (*routedDesign, error) {
	g, err := models.ByName("CIFAR-VGG17")
	if err != nil {
		return nil, err
	}
	co, err := synth.Synthesize(g, synth.Options{Params: device.Params45nm})
	if err != nil {
		return nil, err
	}
	alloc, err := mapper.Allocate(co, 1)
	if err != nil {
		return nil, err
	}
	nl, err := mapper.BuildNetlist(co, alloc, device.Params45nm, nil)
	if err != nil {
		return nil, err
	}
	chip, err := fabric.SizeFor(len(nl.Blocks), 0, device.Params45nm)
	if err != nil {
		return nil, err
	}
	pl, _, err := place.Anneal(context.Background(), nl, chip, rand.New(rand.NewSource(1)), place.Options{})
	if err != nil {
		return nil, err
	}
	res, err := route.Route(context.Background(), nl, pl, chip, route.Options{})
	if err != nil {
		return nil, err
	}
	return &routedDesign{nl, pl, res, chip}, nil
})

type routedDesign struct {
	nl   *netlist.Netlist
	pl   *place.Placement
	res  *route.Result
	chip fabric.Chip
}

func BenchmarkGenerate(b *testing.B) {
	d, err := cifarRouted()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Generate(d.nl, d.pl, d.res, d.chip); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	d, err := cifarRouted()
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := Generate(d.nl, d.pl, d.res, d.chip)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := cfg.Verify(d.nl); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.CellCount()), "cells")
}
