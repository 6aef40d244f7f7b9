// Package deflect implements bufferless deflection (hot-potato)
// routing on the de Bruijn network DN(d,k) — the routing regime in
// which a site has no message queues at all: every round each site
// emits all resident messages, one per output link, and messages that
// lose the contention for a distance-decreasing link are deflected
// onto a free link instead of being buffered.
//
// The paper's distance function is exactly the primitive this regime
// needs. Property 1 (directed) and Theorem 2 (undirected) tell every
// site, in O(k) work and with no global state, how far each neighbor
// is from any destination — so a site can classify each of its output
// links as *advancing* (distance-decreasing) or *deflecting* for a
// given destination, and a deflection policy can bound the cost of
// losing a contention. Fàbrega, Martí-Farré & Muñoz (PAPERS.md,
// arXiv:2203.09918) formalize this as the distance-layer structure
// B_0..B_k of the de Bruijn digraph; Layers materializes that
// decomposition with one reverse BFS from the destination, and the
// tests hold it to the paper's closed forms on every graph up to 4096
// vertices.
//
// The engine (engine.go) is synchronous and slotted: per round, each
// directed channel carries at most one message, contention is resolved
// oldest-first, and losers are deflected by a pluggable policy
// (random, min-distance-increase, layer-aware). An age guard makes
// livelock detectable and counted rather than silent. Experiment E18
// (cmd/dbstats -table deflect) sweeps offered load × policy against
// the store-and-forward engines of internal/network.
package deflect

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/word"
)

// Link is one classified output link of a site, relative to a fixed
// destination.
type Link struct {
	// To is the vertex the link leads to.
	To int32
	// Advancing reports whether taking the link decreases the distance
	// to the destination (dist(To) == dist(from) - 1); a non-advancing
	// link is a deflection.
	Advancing bool
}

// Layers is the distance-layer decomposition of DG(d,k) relative to
// one destination Y: the partition of the vertex set into layers
// B_i = {X : D(X,Y) = i}, i = 0..k, with every output link of every
// site classified as advancing or deflecting. Distances come from one
// reverse BFS toward Y on the explicit graph; the tests assert they
// equal the paper's closed forms (Property 1 for the directed graph,
// Theorem 2 for the undirected one) on every graph up to 4096
// vertices.
type Layers struct {
	dst     word.Word
	dstV    int
	dist    []int32   // dist[v] = D(v, dst)
	layers  [][]int32 // layers[i] = sorted vertices of B_i
	links   []Link    // classified out-links, vertex by vertex
	linkOff []int32   // links of v are links[linkOff[v]:linkOff[v+1]]
}

// NewLayers computes the decomposition of g — a de Bruijn graph built
// by graph.DeBruijn with matching d and k — toward dst with one reverse
// BFS, O(N·d). The layers share one slab of vertices and the
// classified links another.
func NewLayers(g *graph.Graph, dst word.Word) (*Layers, error) {
	n, err := word.Count(dst.Base(), dst.Len())
	if err != nil {
		return nil, fmt.Errorf("deflect: %w", err)
	}
	if g.NumVertices() != n {
		return nil, fmt.Errorf("deflect: graph has %d vertices, DG(%d,%d) needs %d",
			g.NumVertices(), dst.Base(), dst.Len(), n)
	}
	dstV := graph.DeBruijnVertex(dst)
	bfs, err := g.BFSToAvoidingArcs(dstV, nil)
	if err != nil {
		return nil, fmt.Errorf("deflect: %w", err)
	}
	k := dst.Len()
	ly := &Layers{
		dst:     dst,
		dstV:    dstV,
		dist:    make([]int32, n),
		layers:  make([][]int32, k+1),
		linkOff: make([]int32, n+1),
	}
	sizes := make([]int, k+1)
	arcs := 0
	for v, dv := range bfs {
		if dv < 0 || dv > k {
			return nil, fmt.Errorf("deflect: vertex %d at distance %d from %v, outside 0..%d", v, dv, dst, k)
		}
		ly.dist[v] = int32(dv)
		sizes[dv]++
		arcs += len(g.OutNeighbors(v))
	}
	members, off := make([]int32, n), 0
	for i, size := range sizes {
		ly.layers[i] = members[off : off : off+size]
		off += size
	}
	ly.links = make([]Link, 0, arcs)
	for v := 0; v < n; v++ {
		dv := ly.dist[v]
		ly.layers[dv] = append(ly.layers[dv], int32(v))
		for _, u := range g.OutNeighbors(v) {
			ly.links = append(ly.links, Link{To: u, Advancing: ly.dist[u] == dv-1})
		}
		ly.linkOff[v+1] = int32(len(ly.links))
	}
	return ly, nil
}

// Dst returns the destination the decomposition is relative to.
func (l *Layers) Dst() word.Word { return l.dst }

// DstVertex returns the destination's vertex number.
func (l *Layers) DstVertex() int { return l.dstV }

// Dist returns D(v, dst).
func (l *Layers) Dist(v int) int { return int(l.dist[v]) }

// NumLayers returns k+1, the number of (possibly empty) layers B_0..B_k.
func (l *Layers) NumLayers() int { return len(l.layers) }

// Layer returns the vertices of B_i in ascending order. The returned
// slice must not be modified.
func (l *Layers) Layer(i int) []int32 { return l.layers[i] }

// Links returns the classified out-links of v, in the adjacency order
// of the underlying graph (ascending neighbor). The returned slice
// must not be modified.
func (l *Layers) Links(v int) []Link { return l.links[l.linkOff[v]:l.linkOff[v+1]] }

// Advancing returns how many out-links of v decrease the distance —
// the shortest-path out-diversity the deflection engine can exploit.
func (l *Layers) Advancing(v int) int {
	n := 0
	for _, lk := range l.Links(v) {
		if lk.Advancing {
			n++
		}
	}
	return n
}

// LayerCache lazily builds and memoizes one Layers per destination.
// The deflection engine resolves every contention through it, so each
// destination pays the O(N·d) reverse BFS exactly once per run. Not
// safe for concurrent use.
type LayerCache struct {
	g *graph.Graph
	m map[int]*Layers
}

// NewLayerCache returns an empty cache over g.
func NewLayerCache(g *graph.Graph) *LayerCache {
	return &LayerCache{g: g, m: make(map[int]*Layers)}
}

// For returns the (possibly newly computed) decomposition toward dst.
func (c *LayerCache) For(dst word.Word) (*Layers, error) {
	v := graph.DeBruijnVertex(dst)
	if ly, ok := c.m[v]; ok {
		return ly, nil
	}
	ly, err := NewLayers(c.g, dst)
	if err != nil {
		return nil, err
	}
	c.m[v] = ly
	return ly, nil
}

// Size returns the number of destinations decomposed so far.
func (c *LayerCache) Size() int { return len(c.m) }
