package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// Layer replays: the benchmark times its own calls into one layer at
// a time, on the frames the workload actually sent.

// wireTimes are one frame's replayed codec costs.
type wireTimes struct {
	encReq, decReq, encResp, decResp time.Duration
	reqBytes, respBytes              int
}

// wireReps repeats each codec call per frame; the per-call cost is the
// mean over the repetitions.
const wireReps = 8

// replayWire times the four codec steps a request frame crosses:
// the client's encode (serve.WriteFrame), the server's read and decode
// (serve.ReadFrame, serve.ParseRequest, serve.ParseQuery per query),
// the server's response encode and the client's response decode. It
// returns per-frame times and the allocations per frame of all four.
func replayWire(fs []*frame, resps []serve.Response) ([]wireTimes, float64, error) {
	out := make([]wireTimes, len(fs))
	var buf bytes.Buffer
	var rd bytes.Reader
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, f := range fs {
		req := f.req
		req.ID = resps[i].ID
		t := &out[i]

		t0 := time.Now()
		for r := 0; r < wireReps; r++ {
			buf.Reset()
			if err := serve.WriteFrame(&buf, &req); err != nil {
				return nil, 0, err
			}
		}
		t.encReq = time.Since(t0) / wireReps
		reqWire := bytes.Clone(buf.Bytes())
		t.reqBytes = len(reqWire)

		t0 = time.Now()
		for r := 0; r < wireReps; r++ {
			rd.Reset(reqWire)
			if err := decodeRequest(&rd); err != nil {
				return nil, 0, err
			}
		}
		t.decReq = time.Since(t0) / wireReps

		resp := resps[i]
		t0 = time.Now()
		for r := 0; r < wireReps; r++ {
			buf.Reset()
			if err := serve.WriteFrame(&buf, &resp); err != nil {
				return nil, 0, err
			}
		}
		t.encResp = time.Since(t0) / wireReps
		respWire := bytes.Clone(buf.Bytes())
		t.respBytes = len(respWire)

		t0 = time.Now()
		for r := 0; r < wireReps; r++ {
			rd.Reset(respWire)
			body, err := serve.ReadFrame(&rd, 0)
			if err != nil {
				return nil, 0, err
			}
			var got serve.Response
			if err := json.Unmarshal(body, &got); err != nil {
				return nil, 0, err
			}
		}
		t.decResp = time.Since(t0) / wireReps
	}
	runtime.ReadMemStats(&ms1)
	// Two buffer clones per frame are the replay's own.
	allocs := float64(ms1.Mallocs-ms0.Mallocs-uint64(2*len(fs))) / float64(len(fs)*wireReps)
	return out, allocs, nil
}

// decodeRequest is the server's read-and-parse path for one frame.
func decodeRequest(rd *bytes.Reader) error {
	body, err := serve.ReadFrame(rd, 0)
	if err != nil {
		return err
	}
	req, err := serve.ParseRequest(body)
	if err != nil {
		return err
	}
	if req.Kind != "batch" {
		_, err = serve.ParseQuery(req)
		return err
	}
	for _, sub := range req.Batch {
		if _, err := serve.ParseQuery(sub); err != nil {
			return err
		}
	}
	return nil
}

// answerFrame answers one frame on an engine the way a worker shard
// does: one batch frame per batch request, Answer per scalar query.
func answerFrame(eng *serve.Engine, f *frame) error {
	if !f.batch() {
		_, _, err := eng.Answer(f.qs[0], serve.LevelFull)
		return err
	}
	eng.BeginBatch(f.qs)
	for i, q := range f.qs {
		if _, _, err := eng.AnswerBatchTraced(i, q, serve.LevelFull, nil); err != nil {
			return err
		}
	}
	return nil
}

// replayEngine answers each frame through serve.Engine with a cache of
// the server's size, warmed with warm first, and returns each frame's
// time. reps > 1 repeats each frame and takes the mean; only a
// workload whose answers are cache hits may repeat, since a repeat of
// a miss would hit.
func replayEngine(fs []*frame, warm []frame, reps int) ([]time.Duration, error) {
	eng := serve.NewEngine(serve.NewCache(cacheSize, nil))
	for i := range warm {
		if err := answerFrame(eng, &warm[i]); err != nil {
			return nil, err
		}
	}
	out := make([]time.Duration, len(fs))
	for i, f := range fs {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			if err := answerFrame(eng, f); err != nil {
				return nil, err
			}
		}
		out[i] = time.Since(t0) / time.Duration(reps)
	}
	return out, nil
}

// kernelStats are the core.Kernels costs on a workload's pairs.
type kernelStats struct {
	distNs, routeNs, nextNs float64
	allocs                  float64 // per query of the workload's kind mix
	tier                    core.Tier
}

// kernelNs is the kernel cost of one query of the given kind.
func (k kernelStats) kernelNs(kind serve.Kind) float64 {
	switch kind {
	case serve.KindRoute:
		return k.routeNs
	case serve.KindNextHop:
		return k.nextNs
	}
	return k.distNs
}

// kernelBudget is the minimum time each kernel replay runs for.
const kernelBudget = 20 * time.Millisecond

// replayKernels times core.Kernels (the serve engine's front end, in
// its default configuration) on the given queries' pairs: every pair
// through each of the three undirected kernels.
func replayKernels(qs []serve.Query) (kernelStats, error) {
	kn := core.NewKernels(core.KernelConfig{})
	var ks kernelStats
	d, k := qs[0].Src.Base(), qs[0].Src.Len()
	var err error
	timeOp := func(op func(q serve.Query) error) float64 {
		n := 0
		t0 := time.Now()
		for time.Since(t0) < kernelBudget || n == 0 {
			for _, q := range qs {
				if e := op(q); e != nil && err == nil {
					err = e
				}
			}
			n += len(qs)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	dist := func(q serve.Query) error { _, e := kn.UndirectedDistance(q.Src, q.Dst); return e }
	route := func(q serve.Query) error { _, e := kn.RouteUndirected(q.Src, q.Dst); return e }
	next := func(q serve.Query) error { _, _, e := kn.NextHopUndirected(q.Src, q.Dst); return e }
	ks.distNs = timeOp(dist)
	ks.routeNs = timeOp(route)
	ks.nextNs = timeOp(next)
	ks.tier = kn.TierFor(d, k)
	if err != nil {
		return ks, fmt.Errorf("kernel replay: %w", err)
	}

	// Allocations of one pass in the workload's own kind mix.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, q := range qs {
		op := dist
		switch q.Kind {
		case serve.KindRoute:
			op = route
		case serve.KindNextHop:
			op = next
		}
		if err := op(q); err != nil {
			return ks, fmt.Errorf("kernel replay: %w", err)
		}
	}
	runtime.ReadMemStats(&ms1)
	ks.allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(qs))
	return ks, nil
}
