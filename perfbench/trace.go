package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// The benchmark's own span recorder. A traced run records one root
// span per request around Client.Do (or per simulation round around
// the two engine calls). A deterministic sample of those requests is
// then replayed through each layer's calls, and each replayed call
// becomes a child span of its request, laid out inside the request's
// interval in critical-path order with the duration the replay
// measured. Layers the benchmark cannot call on its own — the
// server's admission-to-answer stage and the cluster forward — come
// from registry diffs of the traced phase and are marked as such.
// Spans stay in memory and are written when the run ends.

// Span sources.
const (
	srcMeasured = "measured" // timed around the call in the run itself
	srcReplay   = "replay"   // the call replayed on the request's own frame
	srcRegistry = "registry" // a mean from the dn_serve_* registry diff
)

type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`    // request id shared by a request's spans
	Parent int32  `json:"parent"` // index of the parent span; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Source string `json:"source"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type recorder struct {
	base  time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// add records a span and returns its index.
func (r *recorder) add(name string, req int64, parent int32, start, end time.Time, source string) int32 {
	r.spans = append(r.spans, span{
		Name: name, Req: req, Parent: parent,
		Start: start.Sub(r.base).Nanoseconds(), End: end.Sub(r.base).Nanoseconds(),
		Source: source,
	})
	return int32(len(r.spans) - 1)
}

// child lays a span of duration d out under parent, right after the
// parent's previous child, and returns its index.
func (r *recorder) child(name string, parent int32, d time.Duration, source string) int32 {
	p := r.spans[parent]
	start := p.Start
	for i := len(r.spans) - 1; i > int(parent); i-- {
		if r.spans[i].Parent == parent {
			start = r.spans[i].End
			break
		}
	}
	if d < 0 {
		d = 0
	}
	r.spans = append(r.spans, span{
		Name: name, Req: p.Req, Parent: parent,
		Start: start, End: start + d.Nanoseconds(), Source: source,
	})
	return int32(len(r.spans) - 1)
}

// ledger sums the self time of each span name over the requests that
// have children (the replayed sample) and returns it with the summed
// duration of those requests. Self time is a span's duration minus
// the part of it its children cover.
func (r *recorder) ledger() (self map[string]time.Duration, total time.Duration) {
	covered := make([]time.Duration, len(r.spans))
	hasKids := make([]bool, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.dur()
			hasKids[s.Parent] = true
		}
	}
	self = map[string]time.Duration{}
	for i, s := range r.spans {
		root := i
		for r.spans[root].Parent >= 0 {
			root = int(r.spans[root].Parent)
		}
		if !hasKids[root] {
			continue
		}
		own := s.dur() - covered[i]
		if own < 0 {
			own = 0
		}
		self[s.Name] += own
		if s.Parent < 0 {
			total += s.dur()
		}
	}
	return self, total
}

// write stores the spans as JSON lines under dir.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// rootName names the root span of each workload's requests.
const rootName = "request"

// ledgerLayers are the layer spans every ledger reports, in
// critical-path order; a workload reports 0 for layers it does not
// cross.
var ledgerLayers = []string{
	"client.encode_req", "serve.server", "serve.decode_req", "serve.engine",
	"core.kernels", "cluster.forward", "serve.encode_resp", "client.decode_resp",
	"network.engine", "core.alg4", "deflect.engine", "deflect.layers",
}

// setLedger turns the recorder's self times into each layer's share
// of end-to-end time, names the largest layer and states the
// unattributed residual.
func setLedger(rep *report, rec *recorder) {
	self, total := rec.ledger()
	if total <= 0 {
		total = 1
	}
	type share struct {
		name string
		frac float64
	}
	var shares []share
	for _, l := range ledgerLayers {
		f := float64(self[l]) / float64(total)
		rep.set("ledger."+l, f, "frac")
		shares = append(shares, share{l, f})
	}
	unattributed := float64(self[rootName]) / float64(total)
	rep.set("bench.unattributed_frac", unattributed, "frac")
	sort.SliceStable(shares, func(i, j int) bool { return shares[i].frac > shares[j].frac })
	var b strings.Builder
	for _, s := range shares {
		if s.frac > 0 {
			fmt.Fprintf(&b, " %s %.1f%%", s.name, 100*s.frac)
		}
	}
	rep.note("ledger (self time share of end-to-end):%s; unattributed %.1f%%", b.String(), 100*unattributed)
	if len(shares) > 0 {
		rep.note("largest layer: %s (%.1f%%)", shares[0].name, 100*shares[0].frac)
	}
}
