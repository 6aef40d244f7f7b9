package network

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/word"
)

// The store-and-forward link discipline shared by the batch engine
// (Contention) and the open-loop engine (RunOpenLoop): messages follow
// precomputed walks of vertex ids, and each synchronous round every
// directed link carries its LinkCapacity oldest waiting messages.

// queued is one message waiting at the tail of the directed link
// from→to. stamp is its FIFO arrival order, unique per message; id is
// the engine's index of the message's walk.
type queued struct {
	from, to int32
	id       int32
	stamp    int
}

// linkRound runs one synchronous round over q. It sorts q in place by
// (from, to, stamp) and calls cross, link by link in ascending (from,
// to) and oldest first within a link, for the capacity oldest messages
// on each link. That is the order the engines hand out the next arrival
// stamps in, so later FIFO tie-breaks never depend on anything but the
// walks. cross moves the entry it is given to the message's next link,
// or reports that the message was delivered. linkRound returns q
// without the delivered messages, and the longest queue on any link.
func linkRound(q []queued, capacity int, cross func(*queued) (delivered bool)) ([]queued, int) {
	slices.SortFunc(q, func(a, b queued) int {
		if c := cmp.Compare(a.from, b.from); c != 0 {
			return c
		}
		if c := cmp.Compare(a.to, b.to); c != 0 {
			return c
		}
		return cmp.Compare(a.stamp, b.stamp)
	})
	maxQueue := 0
	for i := 0; i < len(q); {
		j := i + 1
		for j < len(q) && q[j].from == q[i].from && q[j].to == q[i].to {
			j++
		}
		maxQueue = max(maxQueue, j-i)
		for m := i; m < min(j, i+capacity); m++ {
			if cross(&q[m]) {
				q[m].id = -1
			}
		}
		i = j
	}
	return slices.DeleteFunc(q, func(e queued) bool { return e.id < 0 }), maxQueue
}

// rankStep is one concrete hop on vertex ids of DG(d,k) with n = d^k
// vertices: a left shift appending b maps v to (v mod n/d)·d + b, a
// right shift prepending b maps v to b·(n/d) + ⌊v/d⌋.
func rankStep(v int32, t core.HopType, b byte, d, n int32) int32 {
	if t == core.TypeL {
		return v%(n/d)*d + int32(b)
	}
	return int32(b)*(n/d) + v/d
}

// vertexCount returns d^k for the engines, whose walks hold int32
// vertex ids.
func vertexCount(d, k int) (int32, error) {
	n, err := word.Count(d, k)
	if err != nil {
		return 0, fmt.Errorf("network: %w", err)
	}
	if n > math.MaxInt32 {
		return 0, fmt.Errorf("network: DN(%d,%d) has %d sites, beyond int32 vertex ids", d, k, n)
	}
	return int32(n), nil
}
