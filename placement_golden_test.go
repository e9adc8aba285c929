package fpsa

import (
	"context"
	"testing"
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
