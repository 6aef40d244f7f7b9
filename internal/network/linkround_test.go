package network

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/word"
)

// TestRankStepMatchesShift checks the engines' rank arithmetic against
// the word shifts on every DG(d,k) with at most 4096 vertices.
func TestRankStepMatchesShift(t *testing.T) {
	for d := 2; d <= word.MaxBase; d++ {
		for k := 1; ; k++ {
			n, err := word.Count(d, k)
			if err != nil || n > 4096 {
				break
			}
			if _, err := word.ForEach(d, k, func(w word.Word) bool {
				v := int32(graph.DeBruijnVertex(w))
				for b := byte(0); int(b) < d; b++ {
					if got, want := rankStep(v, core.TypeL, b, int32(d), int32(n)), graph.DeBruijnVertex(w.ShiftLeft(b)); int(got) != want {
						t.Fatalf("DG(%d,%d) %v L%d: rank step %d, shift %d", d, k, w, b, got, want)
					}
					if got, want := rankStep(v, core.TypeR, b, int32(d), int32(n)), graph.DeBruijnVertex(w.ShiftRight(b)); int(got) != want {
						t.Fatalf("DG(%d,%d) %v R%d: rank step %d, shift %d", d, k, w, b, got, want)
					}
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestLinkRoundOrder pins the shared round: links in ascending
// (from, to), oldest stamp first within a link, at most capacity
// crossings per link, delivered messages dropped and the longest queue
// reported.
func TestLinkRoundOrder(t *testing.T) {
	q := []queued{
		{from: 3, to: 1, id: 0, stamp: 5},
		{from: 1, to: 2, id: 1, stamp: 9},
		{from: 3, to: 1, id: 2, stamp: 2},
		{from: 1, to: 2, id: 3, stamp: 4},
		{from: 1, to: 0, id: 4, stamp: 7},
		{from: 3, to: 1, id: 5, stamp: 3},
	}
	var crossed []int32
	rest, maxQueue := linkRound(q, 2, func(e *queued) bool {
		crossed = append(crossed, e.id)
		return e.id == 1
	})
	want := []int32{4, 3, 1, 2, 5}
	if len(crossed) != len(want) {
		t.Fatalf("crossed %v, want %v", crossed, want)
	}
	for i := range want {
		if crossed[i] != want[i] {
			t.Fatalf("crossed %v, want %v", crossed, want)
		}
	}
	if maxQueue != 3 {
		t.Fatalf("max queue %d, want 3", maxQueue)
	}
	if len(rest) != len(q)-1 {
		t.Fatalf("%d messages left, want %d", len(rest), len(q)-1)
	}
	for _, e := range rest {
		if e.id == 1 {
			t.Fatal("delivered message 1 still queued")
		}
	}
}
