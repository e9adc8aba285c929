package place

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"fpsa/internal/device"
	"fpsa/internal/fabric"
	"fpsa/internal/netlist"
)

// starNetlist builds a broadcast-heavy netlist: block 0 drives one
// 64-sink net, and seeded random 1–3-sink nets (duplicate pins and
// self-loops included, so net-membership dedup is exercised) tie the rest
// together.
func starNetlist(seed int64) *netlist.Netlist {
	const n = 96
	rng := rand.New(rand.NewSource(seed))
	nl := &netlist.Netlist{Name: "star"}
	for i := 0; i < n; i++ {
		nl.AddBlock(netlist.BlockPE, "b", i, 0)
	}
	sinks := make([]int, 64)
	for i := range sinks {
		sinks[i] = i + 1
	}
	nl.AddNet(0, sinks, 8)
	for i := 1; i < n; i++ {
		k := 1 + rng.Intn(3)
		s := make([]int, k)
		for j := range s {
			s[j] = rng.Intn(n)
		}
		nl.AddNet(i, s, 1+rng.Intn(16))
	}
	return nl
}

// faultedNetlist is starNetlist with residual stuck-cell counts stamped on
// a third of the blocks, so most net weights are fractional.
func faultedNetlist(seed int64) *netlist.Netlist {
	nl := starNetlist(seed)
	nl.Name = "faulted"
	rng := rand.New(rand.NewSource(seed + 1))
	for i := range nl.Blocks {
		if rng.Intn(3) == 0 {
			nl.Blocks[i].Fault = 1 + rng.Intn(40)
		}
	}
	return nl
}

// posHash is an FNV-1a digest of a placement's block→site map.
func posHash(p *Placement) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, s := range p.Pos {
		binary.LittleEndian.PutUint64(buf[:8], uint64(s.X))
		binary.LittleEndian.PutUint64(buf[8:], uint64(s.Y))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func goldenChip(t testing.TB, nl *netlist.Netlist) fabric.Chip {
	t.Helper()
	chip, err := fabric.SizeFor(len(nl.Blocks), 4, device.Params45nm)
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

// TestAnnealGoldenTrajectory pins the annealer's exact trajectory — every
// statistic and the final placement — on three seeded netlists, plus a
// three-run portfolio's outcome. The values were recorded with the naive
// evaluator that recomputed every affected net's HPWL and weight on each
// move; the incremental evaluator must reproduce them bit for bit.
func TestAnnealGoldenTrajectory(t *testing.T) {
	cases := []struct {
		name string
		nl   *netlist.Netlist
		seed int64
		opts Options
		want Stats
		hash uint64
	}{
		{"ring", ringNetlist(40), 3, Options{MovesPerTemp: 300},
			Stats{InitialCost: 192, FinalCost: 52, Temps: 81, Moves: 24300, Accepted: 10561}, 0x8ee98954b1c472c6},
		{"star", starNetlist(5), 7, Options{MovesPerTemp: 400},
			Stats{InitialCost: 9280, FinalCost: 3354, Temps: 74, Moves: 29600, Accepted: 12199}, 0x8de34216cd78ebef},
		{"faulted", faultedNetlist(5), 7, Options{MovesPerTemp: 400},
			Stats{InitialCost: 12404.269572269937, FinalCost: 4422.965531939902, Temps: 81, Moves: 32400, Accepted: 13855}, 0x662e86caa014550e},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, stats, err := Anneal(context.Background(), c.nl, goldenChip(t, c.nl), rand.New(rand.NewSource(c.seed)), c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if stats != c.want {
				t.Errorf("stats %#v, want %#v", stats, c.want)
			}
			if h := posHash(p); h != c.hash {
				t.Errorf("placement hash %#x, want %#x", h, c.hash)
			}
		})
	}

	t.Run("portfolio", func(t *testing.T) {
		nl := faultedNetlist(9)
		p, stats, err := Portfolio(context.Background(), nl, goldenChip(t, nl), 22, PortfolioOptions{
			Runs: 3, Workers: 2, SegmentTemps: 6, CullMargin: 0.05, Anneal: Options{MovesPerTemp: 300},
		})
		if err != nil {
			t.Fatal(err)
		}
		const wantWinner, wantCancelled, wantTotal = 2, 2, 38700
		const wantCost, wantHash = 4738.794369281733, uint64(0x48fef7b88c512501)
		if stats.Winner != wantWinner || stats.Cancelled != wantCancelled || stats.TotalMoves != wantTotal {
			t.Errorf("winner %d, cancelled %d, total moves %d; want %d, %d, %d",
				stats.Winner, stats.Cancelled, stats.TotalMoves, wantWinner, wantCancelled, wantTotal)
		}
		if c := stats.Best().FinalCost; c != wantCost {
			t.Errorf("winning cost %v, want %v", c, wantCost)
		}
		if h := posHash(p); h != wantHash {
			t.Errorf("winning placement hash %#x, want %#x", h, wantHash)
		}
	})
}
