package network

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from the current engines")

// goldenGrid is the (d, k) grid of the golden runs: two alphabets, a
// tiny and a mid-size word length.
var goldenGrid = []struct{ d, k int }{{2, 3}, {2, 6}, {3, 3}, {3, 6}}

var goldenSeeds = []int64{1, 2, 3, 4}

// checkGolden compares got with the golden file byte for byte. The
// files were captured from the map-and-sort engines before the walks
// moved to vertex ids; they change only when simulated behaviour is
// meant to change, and then with -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
}

// TestGoldenOpenLoop pins RunOpenLoop's results on the grid at a light
// and a saturating rate, with both link capacities, plus a run cut
// short by MaxRounds.
func TestGoldenOpenLoop(t *testing.T) {
	var cfgs []OpenLoopConfig
	for _, dk := range goldenGrid {
		for _, seed := range goldenSeeds {
			for _, rate := range []float64{0.05, 1} {
				for _, capacity := range []int{1, 2} {
					cfgs = append(cfgs, OpenLoopConfig{D: dk.d, K: dk.k, Rate: rate, Rounds: 30, LinkCapacity: capacity, Seed: seed})
				}
			}
		}
	}
	cfgs = append(cfgs, OpenLoopConfig{D: 2, K: 6, Rate: 1, Rounds: 30, Seed: 5, MaxRounds: 20})
	var out bytes.Buffer
	for _, cfg := range cfgs {
		res, err := RunOpenLoop(cfg)
		if err != nil {
			t.Fatalf("RunOpenLoop(%+v): %v", cfg, err)
		}
		fmt.Fprintf(&out, "%+v -> %+v\n", cfg, res)
	}
	checkGolden(t, "testdata/golden_openloop.txt", out.Bytes())
}

// TestGoldenContention pins Contention.Run under every planning policy,
// both link kinds and capacities, on a light batch (5% of the sites)
// and a saturating one (four messages per site).
func TestGoldenContention(t *testing.T) {
	var out bytes.Buffer
	for _, dk := range goldenGrid {
		n := 1
		for i := 0; i < dk.k; i++ {
			n *= dk.d
		}
		for _, seed := range goldenSeeds {
			for _, count := range []int{(n + 19) / 20, 4 * n} {
				for _, pol := range []ContentionPolicy{PlanFirst{}, PlanRandom{}, PlanLeastLoaded{}} {
					for _, uni := range []bool{false, true} {
						for _, capacity := range []int{1, 2} {
							cfg := ContentionConfig{D: dk.d, K: dk.k, Unidirectional: uni, LinkCapacity: capacity, Policy: pol, Seed: seed}
							c, err := NewContention(cfg)
							if err != nil {
								t.Fatal(err)
							}
							if err := c.AddUniform(count); err != nil {
								t.Fatal(err)
							}
							res, err := c.Run()
							if err != nil {
								t.Fatalf("Run(%+v, %d): %v", cfg, count, err)
							}
							fmt.Fprintf(&out, "d=%d k=%d seed=%d messages=%d policy=%s uni=%v cap=%d -> %+v planned=%d\n",
								dk.d, dk.k, seed, count, pol.Name(), uni, capacity, res, c.PlannedMaxLinkLoad())
						}
					}
				}
			}
		}
	}
	checkGolden(t, "testdata/golden_contention.txt", out.Bytes())
}
