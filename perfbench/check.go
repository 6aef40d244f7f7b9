package main

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/word"
)

// The answer checker. It judges an answer only against the paper's
// reference implementations — Corollary 4 or Algorithm 4's distance
// evaluation, and plain path replay over the shift operations — and
// never against core.Kernels, the runtime front end that produced the
// answer.

var errWrong = errors.New("wrong answer")

// corollaryMaxK is the largest k whose distances are checked with
// Corollary 4. Its O(k²) evaluation costs ~1 ms per pair at k = 128,
// too slow to check every answer of a traced batch-k128 run, so longer
// words use Algorithm 4's O(k) evaluation of Theorem 2 instead.
const corollaryMaxK = 16

// refDistance is D(src,dst) in the undirected DG(d,k).
func refDistance(src, dst word.Word) (int, error) {
	if src.Len() <= corollaryMaxK {
		return core.UndirectedDistanceCorollary(src, dst)
	}
	return core.UndirectedDistanceLinear(src, dst)
}

// anyDigit resolves wildcard hops: every digit is a valid choice, so
// the checker takes digit 0.
func anyDigit(int, word.Word, core.Hop) byte { return 0 }

// checkDistance accepts got only if it equals the reference distance.
func checkDistance(src, dst word.Word, got int) error {
	want, err := refDistance(src, dst)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%w: distance %v→%v = %d, reference %d", errWrong, src, dst, got, want)
	}
	return nil
}

// checkRoute accepts a path only if its length is the reference
// distance and replaying it from src ends at dst.
func checkRoute(src, dst word.Word, p core.Path) error {
	want, err := refDistance(src, dst)
	if err != nil {
		return err
	}
	if len(p) != want {
		return fmt.Errorf("%w: route %v→%v has %d hops, distance %d", errWrong, src, dst, len(p), want)
	}
	end, err := p.Apply(src, anyDigit)
	if err != nil {
		return fmt.Errorf("%w: route %v→%v: %w", errWrong, src, dst, err)
	}
	if !end.Equal(dst) {
		return fmt.Errorf("%w: route %v→%v ends at %v", errWrong, src, dst, end)
	}
	return nil
}

// checkNextHop accepts a hop only if taking it lowers the reference
// distance by exactly one. done must be set, and no hop given, exactly
// when src == dst.
func checkNextHop(src, dst word.Word, h core.Hop, hasHop, done bool) error {
	if src.Equal(dst) {
		if !done || hasHop {
			return fmt.Errorf("%w: next hop %v→%v: want done", errWrong, src, dst)
		}
		return nil
	}
	if done || !hasHop {
		return fmt.Errorf("%w: next hop %v→%v: no hop for distinct vertices", errWrong, src, dst)
	}
	next, err := core.Path{h}.Apply(src, anyDigit)
	if err != nil {
		return fmt.Errorf("%w: next hop %v→%v: %w", errWrong, src, dst, err)
	}
	before, err := refDistance(src, dst)
	if err != nil {
		return err
	}
	after, err := refDistance(next, dst)
	if err != nil {
		return err
	}
	if after != before-1 {
		return fmt.Errorf("%w: next hop %v from %v toward %v leaves distance %d → %d", errWrong, h, src, dst, before, after)
	}
	return nil
}

// answer is what the checker needs of one served answer, in a form
// compact enough to keep for every answer of a traced run: hops are
// packed one per byte (bit 7 type R, bit 6 wildcard, low bits digit).
type answer struct {
	usable   bool
	hasHop   bool
	done     bool
	distance int32
	hop      byte
	path     []byte
	bad      error // a hop the wire form did not parse
}

func packHop(h core.Hop) byte {
	b := h.Digit & 0x3f
	if h.Type == core.TypeR {
		b |= 0x80
	}
	if h.Wildcard {
		b |= 0x40
	}
	return b
}

func unpackHop(b byte) core.Hop {
	h := core.Hop{Digit: b & 0x3f, Wildcard: b&0x40 != 0}
	if b&0x80 != 0 {
		h.Type = core.TypeR
	}
	return h
}

// usable reports whether r is a full-fidelity answer. Shed, degraded
// and error responses are failures the closed loop already counted;
// the checker judges only the answers that claim to be exact.
func usable(r serve.Response) bool {
	return r.Status == serve.StatusOK && r.Degrade == ""
}

func compact(r serve.Response) answer {
	a := answer{usable: usable(r), done: r.Done, distance: int32(r.Distance)}
	if len(r.Path) > 0 {
		a.path = make([]byte, len(r.Path))
		for i, s := range r.Path {
			h, err := serve.ParseHop(s)
			if err != nil {
				a.bad = err
				break
			}
			a.path[i] = packHop(h)
		}
	}
	if r.NextHop != "" {
		h, err := serve.ParseHop(r.NextHop)
		if err != nil {
			a.bad = err
		}
		a.hop, a.hasHop = packHop(h), true
	}
	return a
}

// compactFrame keeps the answers of one response frame; a usable batch
// response of the wrong length keeps nil, which the checker rejects.
func compactFrame(f *frame, r serve.Response) []answer {
	if !f.batch() {
		return []answer{compact(r)}
	}
	if !usable(r) {
		return make([]answer, len(f.qs)) // every answer unusable
	}
	if len(r.Batch) != len(f.qs) {
		return nil
	}
	out := make([]answer, len(r.Batch))
	for i := range r.Batch {
		out[i] = compact(r.Batch[i])
	}
	return out
}

// checkAnswer verifies one usable answer of query q. Distance and
// route answers carry the distance; next-hop answers do not.
func checkAnswer(q serve.Query, a answer) error {
	if a.bad != nil {
		return fmt.Errorf("%w: %w", errWrong, a.bad)
	}
	switch q.Kind {
	case serve.KindRoute:
		if err := checkDistance(q.Src, q.Dst, int(a.distance)); err != nil {
			return err
		}
		p := make(core.Path, len(a.path))
		for i, b := range a.path {
			p[i] = unpackHop(b)
		}
		return checkRoute(q.Src, q.Dst, p)
	case serve.KindNextHop:
		return checkNextHop(q.Src, q.Dst, unpackHop(a.hop), a.hasHop, a.done)
	}
	return checkDistance(q.Src, q.Dst, int(a.distance))
}

// checkAnswers verifies every usable answer kept for frame f and
// returns how many it rejected.
func checkAnswers(f *frame, as []answer) (wrong int, first error) {
	if len(as) != len(f.qs) {
		return len(f.qs), fmt.Errorf("%w: %d queries answered with %d answers", errWrong, len(f.qs), len(as))
	}
	for i, q := range f.qs {
		if !as[i].usable {
			continue
		}
		if err := checkAnswer(q, as[i]); err != nil {
			wrong++
			if first == nil {
				first = err
			}
		}
	}
	return wrong, first
}
