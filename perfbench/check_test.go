package main

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/word"
)

// referencePair returns a random distinct pair of DG(2,k) with its
// Algorithm 4 path.
func referencePair(t *testing.T, rng *rand.Rand, k int) (src, dst word.Word, p core.Path) {
	t.Helper()
	for {
		src, dst = word.Random(2, k, rng), word.Random(2, k, rng)
		if src.Equal(dst) {
			continue
		}
		p, err := core.RouteUndirectedLinear(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		return src, dst, p
	}
}

func TestReferenceDistanceMatchesBFS(t *testing.T) {
	const k = 7
	g, err := graph.DeBruijn(graph.Undirected, 2, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{0, 5, 77, 127} {
		dist, err := g.BFSFrom(s)
		if err != nil {
			t.Fatal(err)
		}
		src, _ := graph.DeBruijnWord(2, k, s)
		for v, want := range dist {
			dst, _ := graph.DeBruijnWord(2, k, v)
			if err := checkDistance(src, dst, want); err != nil {
				t.Fatalf("BFS distance rejected: %v", err)
			}
		}
	}
}

func TestReferenceDistancesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 20; i++ {
		src, dst := word.Random(2, 128, rng), word.Random(2, 128, rng)
		c, err := core.UndirectedDistanceCorollary(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if l, err := refDistance(src, dst); err != nil || l != c {
			t.Fatalf("Algorithm 4 distance %d, Corollary 4 %d (%v)", l, c, err)
		}
	}
}

func TestCheckerAcceptsReferenceAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{10, 128} {
		for i := 0; i < 50; i++ {
			src, dst, p := referencePair(t, rng, k)
			if err := checkRoute(src, dst, p); err != nil {
				t.Fatalf("k=%d: reference route rejected: %v", k, err)
			}
			if err := checkDistance(src, dst, len(p)); err != nil {
				t.Fatalf("k=%d: reference distance rejected: %v", k, err)
			}
			if err := checkNextHop(src, dst, p[0], true, false); err != nil {
				t.Fatalf("k=%d: first hop of a shortest path rejected: %v", k, err)
			}
		}
	}
	w := word.MustParse(2, "0110100111")
	if err := checkNextHop(w, w, core.Hop{}, false, true); err != nil {
		t.Fatalf("done for src == dst rejected: %v", err)
	}
}

func TestCheckerRejectsCorruptedDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src, dst, p := referencePair(t, rng, 10)
	for _, d := range []int{len(p) - 1, len(p) + 1, 0} {
		if err := checkDistance(src, dst, d); !errors.Is(err, errWrong) {
			t.Fatalf("distance %d (true %d) not rejected: %v", d, len(p), err)
		}
	}
}

func TestCheckerRejectsPathMissingDst(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rejected := 0
	for i := 0; i < 50; i++ {
		src, dst, p := referencePair(t, rng, 10)
		last := p[len(p)-1]
		if last.Wildcard {
			continue
		}
		// Same length, last inserted digit flipped: the walk ends one
		// digit away from dst.
		bad := append(core.Path(nil), p...)
		bad[len(bad)-1].Digit ^= 1
		if err := checkRoute(src, dst, bad); !errors.Is(err, errWrong) {
			t.Fatalf("path %v from %v ending off %v not rejected: %v", bad, src, dst, err)
		}
		// One hop short.
		if err := checkRoute(src, dst, p[:len(p)-1]); !errors.Is(err, errWrong) {
			t.Fatalf("short path not rejected: %v", err)
		}
		rejected++
	}
	if rejected == 0 {
		t.Fatal("no pair with a concrete last hop")
	}
}

func TestCheckerRejectsNonShortestNextHop(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rejected := 0
	for i := 0; i < 50; i++ {
		src, dst, _ := referencePair(t, rng, 10)
		d, err := refDistance(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []core.Hop{core.L(0), core.L(1), core.R(0), core.R(1)} {
			next, err := core.Path{h}.Apply(src, nil)
			if err != nil {
				t.Fatal(err)
			}
			after, err := refDistance(next, dst)
			if err != nil {
				t.Fatal(err)
			}
			err = checkNextHop(src, dst, h, true, false)
			if after == d-1 {
				if err != nil {
					t.Fatalf("shortest next hop %v rejected: %v", h, err)
				}
				continue
			}
			if !errors.Is(err, errWrong) {
				t.Fatalf("next hop %v (distance %d → %d) not rejected: %v", h, d, after, err)
			}
			rejected++
		}
		if err := checkNextHop(src, dst, core.Hop{}, false, true); !errors.Is(err, errWrong) {
			t.Fatalf("done for distinct vertices not rejected: %v", err)
		}
	}
	if rejected == 0 {
		t.Fatal("no non-shortest next hop was tried")
	}
}

func TestCompactAnswersRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src, dst, p := referencePair(t, rng, 10)
	hops := make([]string, len(p))
	for i, h := range p {
		hops[i] = serve.FormatHop(h)
	}
	f := batchFrameOf(
		scalarFrame(serve.KindRoute, src, dst),
		scalarFrame(serve.KindNextHop, src, dst),
		scalarFrame(serve.KindDistance, src, dst),
	)
	resp := serve.Response{Status: serve.StatusOK, Batch: []serve.Response{
		{Status: serve.StatusOK, Distance: len(p), Path: hops},
		{Status: serve.StatusOK, NextHop: hops[0]},
		{Status: serve.StatusOK, Distance: len(p)},
	}}
	if wrong, err := checkAnswers(&f, compactFrame(&f, resp)); wrong != 0 {
		t.Fatalf("right answers rejected: %v", err)
	}
	resp.Batch[2].Distance++
	if wrong, _ := checkAnswers(&f, compactFrame(&f, resp)); wrong != 1 {
		t.Fatalf("corrupted distance: %d wrong, want 1", wrong)
	}
	resp.Batch = resp.Batch[:2]
	if wrong, _ := checkAnswers(&f, compactFrame(&f, resp)); wrong != len(f.qs) {
		t.Fatalf("short batch: %d wrong, want %d", wrong, len(f.qs))
	}
}

// batchFrameOf wraps scalar frames into one batch frame.
func batchFrameOf(fs ...frame) frame {
	var b frame
	items := make([]serve.Request, len(fs))
	for i, f := range fs {
		items[i] = f.req
		b.qs = append(b.qs, f.qs[0])
	}
	b.req = serve.BatchRequest(items...)
	return b
}
