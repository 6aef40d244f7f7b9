package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/word"
)

// connections is the closed-loop width: two connections, one request
// outstanding on each. It is fixed rather than taken from the machine
// so that a workload means the same thing everywhere.
const connections = 2

// requestGrace bounds how long a request may run past the end of a
// phase before the loop gives up on it (and counts it as failed).
const requestGrace = 5 * time.Second

// frame is one pre-built request frame and the queries it carries.
type frame struct {
	req serve.Request
	qs  []serve.Query
}

func (f *frame) batch() bool { return f.req.Kind == "batch" }

// pickKind draws the load generator's kind mix: 50% route, 20% next
// hop, 30% distance.
func pickKind(rng *rand.Rand) serve.Kind {
	switch x := rng.Intn(10); {
	case x < 5:
		return serve.KindRoute
	case x < 7:
		return serve.KindNextHop
	default:
		return serve.KindDistance
	}
}

// scalar builds the undirected request and query of one kind.
func scalar(kind serve.Kind, src, dst word.Word) (serve.Request, serve.Query) {
	var req serve.Request
	switch kind {
	case serve.KindRoute:
		req = serve.RouteRequest(src, dst, serve.Undirected)
	case serve.KindNextHop:
		req = serve.NextHopRequest(src, dst, serve.Undirected)
	default:
		req = serve.DistanceRequest(src, dst, serve.Undirected)
	}
	return req, serve.Query{Kind: kind, Mode: serve.Undirected, Src: src, Dst: dst}
}

func scalarFrame(kind serve.Kind, src, dst word.Word) frame {
	req, q := scalar(kind, src, dst)
	return frame{req: req, qs: []serve.Query{q}}
}

func batchFrame(rng *rand.Rand, d, k, n int) frame {
	items := make([]serve.Request, n)
	qs := make([]serve.Query, n)
	for i := range items {
		items[i], qs[i] = scalar(pickKind(rng), word.Random(d, k, rng), word.Random(d, k, rng))
	}
	return frame{req: serve.BatchRequest(items...), qs: qs}
}

// goodAnswers counts the usable answers of a response frame.
func goodAnswers(f *frame, r serve.Response) int {
	if !usable(r) {
		return 0
	}
	if !f.batch() {
		return 1
	}
	if len(r.Batch) != len(f.qs) {
		return 0
	}
	n := 0
	for i := range r.Batch {
		if usable(r.Batch[i]) {
			n++
		}
	}
	return n
}

// sampled is one full response of a traced phase, kept for the layer
// replays.
type sampled struct {
	idx  int // pool index of the request frame
	resp serve.Response
	root int32 // its root span
}

// kept is the compact answers of one response frame.
type kept struct {
	idx     int
	answers []answer
}

// rootSpan is one request's Client.Do interval.
type rootSpan struct {
	start, end time.Time
}

// loopConn is one closed-loop connection and what it recorded in the
// current phase.
type loopConn struct {
	client *serve.Client
	next   func() int // pool index of the connection's next request

	win             *windows
	frames, queries int64
	failed          int64
	kept            []kept     // answers for the off-clock check
	roots           []rootSpan // traced: every request's span
	sample          []sampled  // traced: responses for the replays
	keepEvery       int64      // untraced: keep every n-th frame's answers
	maxSample       int        // traced: at most this many replay responses
	traced          bool
}

// Sampling of the closed loop. An untraced phase keeps the answers of
// every keepEvery-th frame of each connection, up to maxKeptFrames, in
// storage allocated before the phase, so the benchmark's own heap
// does not grow while it measures. A traced phase keeps every answer
// and every replayStride-th full response, up to its replay limit.
const (
	maxKeptFrames = 4096
	replayStride  = 7
)

// resetUntraced clears the phase records for an untraced phase,
// keeping the request stream.
func (c *loopConn) resetUntraced(keepEvery int64) {
	*c = loopConn{client: c.client, next: c.next, keepEvery: keepEvery, kept: make([]kept, 0, maxKeptFrames)}
}

// resetTraced clears the phase records for a traced phase.
func (c *loopConn) resetTraced(maxSample int) {
	*c = loopConn{client: c.client, next: c.next, maxSample: maxSample, traced: true}
}

// drive sends requests one at a time until end, or until limit
// frames when limit > 0.
func (c *loopConn) drive(ctx context.Context, pool []frame, end time.Time, limit int64) {
	for i := int64(0); limit <= 0 || i < limit; i++ {
		t0 := time.Now()
		if !t0.Before(end) {
			return
		}
		idx := c.next()
		f := &pool[idx]
		resp, err := c.client.Do(ctx, f.req)
		t1 := time.Now()
		c.frames++
		n := int64(len(f.qs))
		c.queries += n
		if err != nil {
			c.failed += n
			c.win.add(t1, t1.Sub(t0), 0)
			if ctx.Err() != nil {
				return
			}
			continue
		}
		good := int64(goodAnswers(f, resp))
		c.failed += n - good
		c.win.add(t1, t1.Sub(t0), good)
		if !c.traced {
			if i%c.keepEvery == 0 && len(c.kept) < maxKeptFrames {
				c.kept = append(c.kept, kept{idx: idx, answers: compactFrame(f, resp)})
			}
			continue
		}
		c.roots = append(c.roots, rootSpan{t0, t1})
		c.kept = append(c.kept, kept{idx: idx, answers: compactFrame(f, resp)})
		if i%replayStride == 0 && len(c.sample) < c.maxSample {
			c.sample = append(c.sample, sampled{idx: idx, resp: resp, root: int32(len(c.roots) - 1)})
		}
	}
}

// closedLoop runs every connection for dur and waits for all of them.
// It returns the process CPU time of each window.
func closedLoop(conns []*loopConn, pool []frame, dur, window time.Duration) []time.Duration {
	ctx, cancel := context.WithTimeout(context.Background(), dur+requestGrace)
	defer cancel()
	for _, c := range conns {
		c.win = newWindows(dur, window)
	}
	start := time.Now()
	end := start.Add(dur)
	for _, c := range conns {
		c.win.start = start
	}
	var wg sync.WaitGroup
	stopCPU := cpuWindows(conns[0].win)
	for _, c := range conns {
		wg.Add(1)
		go func(c *loopConn) {
			defer wg.Done()
			c.drive(ctx, pool, end, 0)
		}(c)
	}
	wg.Wait()
	return stopCPU()
}

// closedLoopCount sends exactly n requests of c's stream, one at a
// time.
func closedLoopCount(c *loopConn, pool []frame, n int64) {
	ctx, cancel := context.WithTimeout(context.Background(), requestGrace+time.Duration(n)*deadline)
	defer cancel()
	dur := time.Duration(n) * deadline
	c.win = newWindows(dur, dur)
	c.win.start = time.Now()
	c.drive(ctx, pool, c.win.start.Add(dur), n)
}

func windowsOf(conns []*loopConn) []*windows {
	ws := make([]*windows, len(conns))
	for i, c := range conns {
		ws[i] = c.win
	}
	return ws
}

// totals sums the phase records of all connections.
func totals(conns []*loopConn) (frames, queries, failed int64) {
	for _, c := range conns {
		frames += c.frames
		queries += c.queries
		failed += c.failed
	}
	return frames, queries, failed
}

// checkKept runs the answer checker on two goroutines over every kept
// answer and returns the number of rejected answers.
func checkKept(conns []*loopConn, pool []frame) (int64, error) {
	var all []kept
	for _, c := range conns {
		all = append(all, c.kept...)
	}
	var mu sync.Mutex
	var wrong int64
	var first error
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(all); i += workers {
				n, err := checkAnswers(&pool[all[i].idx], all[i].answers)
				if n == 0 {
					continue
				}
				mu.Lock()
				wrong += int64(n)
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return wrong, first
}

// askOnce sends one frame on a fresh connection and checks its answer
// strictly: it must be usable and right.
func askOnce(addr string, f *frame) error {
	c, err := serve.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), requestGrace)
	defer cancel()
	resp, err := c.Do(ctx, f.req)
	if err != nil {
		return err
	}
	if goodAnswers(f, resp) != len(f.qs) {
		return fmt.Errorf("first answer not usable: status %q degrade %q", resp.Status, resp.Degrade)
	}
	_, err = checkAnswers(f, compactFrame(f, resp))
	return err
}
