package deflect

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/word"
)

// smallGraphs enumerates every DG(d,k) with d^k ≤ 4096 and k ≥ 2, the
// family the layer decomposition is checked against the closed forms
// on.
func smallGraphs() []struct{ d, k int } {
	var out []struct{ d, k int }
	for d := 2; d <= 5; d++ {
		for k := 2; ; k++ {
			n, err := word.Count(d, k)
			if err != nil || n > 4096 {
				break
			}
			out = append(out, struct{ d, k int }{d, k})
		}
	}
	return out
}

// TestLayersAgreeWithClosedForm holds the BFS-built decomposition to
// the paper: on every de Bruijn graph with at most 4096 vertices (both
// kinds), every layer distance equals Property 1 (directed) or
// Theorem 2 (undirected), the layers partition the vertex set, link
// classification is consistent, and every non-destination site has at
// least one advancing link — so the engine deflects only under
// contention, never for lack of a shortest-path move.
func TestLayersAgreeWithClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, kind := range []graph.Kind{graph.Directed, graph.Undirected} {
		closedForm := core.UndirectedDistance
		if kind == graph.Directed {
			closedForm = core.DirectedDistance
		}
		for _, dk := range smallGraphs() {
			g, err := graph.DeBruijn(kind, dk.d, dk.k)
			if err != nil {
				t.Fatalf("DeBruijn(%v,%d,%d): %v", kind, dk.d, dk.k, err)
			}
			n := g.NumVertices()
			words := make([]word.Word, n)
			for v := range words {
				if words[v], err = graph.DeBruijnWord(dk.d, dk.k, v); err != nil {
					t.Fatal(err)
				}
			}
			var dests []int
			if n <= 128 {
				for v := 0; v < n; v++ {
					dests = append(dests, v)
				}
			} else {
				dests = append(dests, 0) // the constant word 0^k
				for i := 0; i < 6; i++ {
					dests = append(dests, rng.Intn(n))
				}
			}
			for _, dv := range dests {
				dw := words[dv]
				ly, err := NewLayers(g, dw)
				if err != nil {
					t.Fatalf("NewLayers(%v, DG(%v,%d,%d)): %v", dw, kind, dk.d, dk.k, err)
				}
				total := 0
				for i := 0; i < ly.NumLayers(); i++ {
					total += len(ly.Layer(i))
					for j, v := range ly.Layer(i) {
						if ly.Dist(int(v)) != i {
							t.Fatalf("DG(%v,%d,%d) dst %v: vertex %d in layer %d but Dist=%d",
								kind, dk.d, dk.k, dw, v, i, ly.Dist(int(v)))
						}
						if j > 0 && ly.Layer(i)[j-1] >= v {
							t.Fatalf("DG(%v,%d,%d) dst %v: layer %d not ascending at %d", kind, dk.d, dk.k, dw, i, j)
						}
					}
				}
				if total != n {
					t.Fatalf("DG(%v,%d,%d) dst %v: layers cover %d of %d vertices",
						kind, dk.d, dk.k, dw, total, n)
				}
				for v := 0; v < n; v++ {
					want, err := closedForm(words[v], dw)
					if err != nil {
						t.Fatal(err)
					}
					if ly.Dist(v) != want {
						t.Fatalf("DG(%v,%d,%d): layer D(%v,%v)=%d, closed form says %d",
							kind, dk.d, dk.k, words[v], dw, ly.Dist(v), want)
					}
					adv := 0
					for _, lk := range ly.Links(v) {
						wantAdv := ly.Dist(int(lk.To)) == ly.Dist(v)-1
						if lk.Advancing != wantAdv {
							t.Fatalf("DG(%v,%d,%d) dst %v: link %d→%d classified %v, want %v",
								kind, dk.d, dk.k, dw, v, lk.To, lk.Advancing, wantAdv)
						}
						if lk.Advancing {
							adv++
						}
					}
					if adv != ly.Advancing(v) {
						t.Fatalf("Advancing(%d)=%d, counted %d", v, ly.Advancing(v), adv)
					}
					if v != dv && adv == 0 {
						t.Fatalf("DG(%v,%d,%d) dst %v: site %d at distance %d has no advancing link",
							kind, dk.d, dk.k, dw, v, ly.Dist(v))
					}
				}
			}
		}
	}
}

func TestLayerCacheMemoizes(t *testing.T) {
	g, err := graph.DeBruijn(graph.Undirected, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	c := NewLayerCache(g)
	dst := word.MustParse(2, "10110")
	a, err := c.For(dst)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.For(dst)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache rebuilt the decomposition for a seen destination")
	}
	if c.Size() != 1 {
		t.Fatalf("Size() = %d, want 1", c.Size())
	}
	if _, err := c.For(word.MustParse(2, "00000")); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 2 {
		t.Fatalf("Size() = %d, want 2", c.Size())
	}
}

func TestNewLayersRejectsMismatchedGraph(t *testing.T) {
	g, err := graph.DeBruijn(graph.Directed, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLayers(g, word.MustParse(2, "10101")); err == nil {
		t.Fatal("NewLayers accepted a destination word of the wrong length")
	}
}
