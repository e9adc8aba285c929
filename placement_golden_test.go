package fpsa

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"fpsa/internal/bitstream"
)

// TestLeNetPlaceAndRouteGolden pins a default LeNet compile's
// place-and-route outcome exactly: the annealer's move count, the winning
// placement's wirelength cost and the routed mean hop count. All three
// are deterministic, so any drift means the placement trajectory changed.
func TestLeNetPlaceAndRouteGolden(t *testing.T) {
	m, err := LoadBenchmark("LeNet")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compile(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.PlaceAndRoute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const wantMoves, wantCost, wantHops = 242460, 10218.0, 3.652173913043478
	if s.PlacementMoves != wantMoves || s.WirelengthCost != wantCost || s.MeanHops != wantHops {
		t.Errorf("moves %d, cost %v, mean hops %v; want %d, %v, %v",
			s.PlacementMoves, s.WirelengthCost, s.MeanHops, wantMoves, wantCost, wantHops)
	}
}

// TestBitstreamGolden pins the configuration a default compile programs
// for LeNet and CIFAR-VGG17: an FNV-1a hash of the SB and CB cell
// sequences (every field, in order) and the track occupancy. The values
// were recorded before the bitstream generator was last rewritten.
func TestBitstreamGolden(t *testing.T) {
	cases := []struct {
		model            string
		digest           uint64
		cells, occupancy int
	}{
		{"LeNet", 0x2e599250036f4584, 30608, 1762},
		{"CIFAR-VGG17", 0x17ef9e8f9b68bef, 207618, 2032},
	}
	for _, tc := range cases {
		m, err := LoadBenchmark(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Compile(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.PlaceAndRoute(context.Background()); err != nil {
			t.Fatal(err)
		}
		cfg, err := bitstream.Generate(d.nl, d.lastPlacement, d.lastRoute, d.lastChip)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Verify(d.nl); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		put := func(vs ...int) {
			for _, v := range vs {
				binary.LittleEndian.PutUint64(buf[:], uint64(v))
				h.Write(buf[:])
			}
		}
		put(len(cfg.SBCells))
		for _, s := range cfg.SBCells {
			put(s.NodeA, s.TrackA, s.NodeB, s.TrackB, s.Net, s.Signal)
		}
		put(len(cfg.CBCells))
		for _, c := range cfg.CBCells {
			src := 0
			if c.Source {
				src = 1
			}
			put(c.Block, c.Node, c.Track, c.Net, c.Signal, src)
		}
		put(cfg.TrackOccupancy())
		if got, n, occ := h.Sum64(), cfg.CellCount(), cfg.TrackOccupancy(); got != tc.digest || n != tc.cells || occ != tc.occupancy {
			t.Errorf("%s: digest %#x, %d cells, occupancy %d; want %#x, %d, %d",
				tc.model, got, n, occ, tc.digest, tc.cells, tc.occupancy)
		}
	}
}
