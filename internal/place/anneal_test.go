package place

import (
	"context"
	"math/rand"
	"testing"

	"fpsa/internal/netlist"
)

// checkCaches asserts that the annealer's cached per-net state matches a
// from-scratch recomputation: every HPWL, every kept bounding box, and
// the cost summed from them, bit for bit.
func checkCaches(t *testing.T, a *annealer) {
	t.Helper()
	for i := range a.nl.Nets {
		net := &a.nl.Nets[i]
		if want := netHPWL(a.p, net); a.hp[i] != want {
			t.Fatalf("net %d: cached HPWL %d, recomputed %d", i, a.hp[i], want)
		}
		if !a.scan[i] {
			if want := netBBox(a.p, net); a.bb[i] != want {
				t.Fatalf("net %d: cached box %+v, recomputed %+v", i, a.bb[i], want)
			}
		}
	}
	if got, want := a.CurrentCost(), Cost(a.p, a.nl); got != want {
		t.Fatalf("cached cost %v, Cost %v", got, want)
	}
}

// TestAnnealCacheConsistency: the incremental state stays exact at every
// segment boundary — the points where Portfolio checkpoints — and at the
// end of the run, on plain, high-fanout and faulted netlists.
func TestAnnealCacheConsistency(t *testing.T) {
	for _, c := range []struct {
		nl   *netlist.Netlist
		seed int64
	}{{ringNetlist(40), 3}, {starNetlist(5), 7}, {faultedNetlist(5), 7}} {
		t.Run(c.nl.Name, func(t *testing.T) {
			a, err := newAnnealer(c.nl, goldenChip(t, c.nl), rand.New(rand.NewSource(c.seed)), Options{MovesPerTemp: 300})
			if err != nil {
				t.Fatal(err)
			}
			checkCaches(t, a)
			for !a.done {
				a.run(context.Background(), 4)
				checkCaches(t, a)
			}
			if err := a.p.Validate(); err != nil {
				t.Fatal(err)
			}
			_, stats := a.finish()
			if want := Cost(a.p, a.nl); stats.FinalCost != want {
				t.Fatalf("FinalCost %v, Cost %v", stats.FinalCost, want)
			}
		})
	}
}

// TestAnnealStepAllocFree is the deterministic allocation gate: once an
// annealer is built, a whole temperature step allocates nothing.
func TestAnnealStepAllocFree(t *testing.T) {
	for _, nl := range []*netlist.Netlist{ringNetlist(64), faultedNetlist(5)} {
		a, err := newAnnealer(nl, goldenChip(t, nl), rand.New(rand.NewSource(1)), Options{MovesPerTemp: 500})
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(10, a.step); allocs != 0 {
			t.Errorf("%s: annealer.step allocates %v times per temperature, want 0", nl.Name, allocs)
		}
		if a.done {
			t.Fatalf("%s: anneal finished before the gate measured 11 steps", nl.Name)
		}
	}
}

// BenchmarkAnneal measures the annealer kernel alone on a 256-block ring
// and on the high-fanout star netlist, in proposed moves per second.
func BenchmarkAnneal(b *testing.B) {
	for _, nl := range []*netlist.Netlist{ringNetlist(256), starNetlist(5)} {
		b.Run(nl.Name, func(b *testing.B) {
			chip := goldenChip(b, nl)
			moves := 0
			for i := 0; i < b.N; i++ {
				_, stats, err := Anneal(context.Background(), nl, chip, rand.New(rand.NewSource(int64(i))), Options{})
				if err != nil {
					b.Fatal(err)
				}
				moves += stats.Moves
			}
			b.ReportMetric(float64(moves)/b.Elapsed().Seconds(), "moves/s")
		})
	}
}
