package deflect

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file under testdata/ from the current engine")

// TestGoldenRunLoad pins RunLoad's results under every policy, both
// graph kinds, a light and a saturating rate, on a small (d, k) grid.
// The file was captured before the layers came from a reverse BFS; it
// changes only when simulated behaviour is meant to change, and then
// with -update.
func TestGoldenRunLoad(t *testing.T) {
	var out bytes.Buffer
	for _, dk := range []struct{ d, k int }{{2, 3}, {2, 6}, {3, 3}, {3, 6}} {
		for _, seed := range []int64{1, 2, 3, 4} {
			for _, rate := range []float64{0.05, 1} {
				for _, pol := range Policies() {
					for _, uni := range []bool{false, true} {
						cfg := LoadConfig{D: dk.d, K: dk.k, Unidirectional: uni, Policy: pol, Rate: rate, Rounds: 20, Seed: seed}
						res, err := RunLoad(cfg)
						if err != nil {
							t.Fatalf("RunLoad(%+v): %v", cfg, err)
						}
						fmt.Fprintf(&out, "d=%d k=%d seed=%d rate=%v policy=%s uni=%v -> %+v\n",
							dk.d, dk.k, seed, rate, pol.Name(), uni, res)
					}
				}
			}
		}
	}
	const path = "testdata/golden_runload.txt"
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
}
