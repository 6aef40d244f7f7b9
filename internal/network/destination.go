package network

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/word"
)

// SendDestinationRouted forwards a message with destination-based
// self-routing: the header carries no path field; every site derives
// its next hop locally from (current site, destination) with the
// distance functions (core.Kernels.NextHopDirected / NextHopUndirected),
// resolving wildcard decisions with the configured policy. Hop counts
// match source-routed delivery exactly — per-hop recomputation
// contracts the distance by one regardless of wildcard resolution.
func (n *Network) SendDestinationRouted(src, dst word.Word, payload string) (Delivery, error) {
	srcV, err := n.vertex(src)
	if err != nil {
		return Delivery{}, err
	}
	if _, err := n.vertex(dst); err != nil {
		return Delivery{}, err
	}
	n.m.sent.Inc()
	msg := Message{Control: ControlData, Source: src, Dest: dst, Payload: payload}
	del := Delivery{Msg: msg}
	if n.cfg.Trace {
		del.Trace = append(del.Trace, obs.HopEvent{
			Cause: obs.CauseInject, Site: src.String(), Digit: -1,
		})
	}
	if n.failed[srcV] {
		n.drop(&del, src, DropSourceFailed, "")
		return del, nil
	}
	cur := src
	for {
		if cur.Equal(dst) {
			n.deliver(&del, cur)
			return del, nil
		}
		if del.Hops >= n.cfg.TTL {
			n.drop(&del, cur, DropTTLExceeded, fmt.Sprintf("ttl %d at %v", n.cfg.TTL, cur))
			return del, nil
		}
		var hop core.Hop
		var more bool
		if n.cfg.Unidirectional {
			hop, more, err = n.kn.NextHopDirected(cur, dst)
		} else {
			hop, more, err = n.kn.NextHopUndirected(cur, dst)
		}
		if err != nil {
			return Delivery{}, err
		}
		if !more {
			// Unreachable: cur != dst was checked above.
			return Delivery{}, fmt.Errorf("network: next-hop reported done at %v ≠ %v", cur, dst)
		}
		digit := hop.Digit
		if hop.Wildcard {
			digit = n.cfg.Policy.Choose(n, cur, hop)
			if int(digit) >= n.cfg.D {
				return Delivery{}, fmt.Errorf("network: policy chose digit %d outside base %d", digit, n.cfg.D)
			}
		}
		var next word.Word
		if hop.Type == core.TypeL {
			next = cur.ShiftLeft(digit)
		} else {
			next = cur.ShiftRight(digit)
		}
		nextV := graph.DeBruijnVertex(next)
		if n.failed[nextV] {
			if !n.cfg.Adaptive {
				n.drop(&del, cur, DropSiteFailed, fmt.Sprintf("next site %v", next))
				return del, nil
			}
			// Failure fallback: a purely greedy single-step detour can
			// ping-pong against the failed region, so the site attaches
			// a full failure-avoiding source route and the message
			// follows it to the destination (bounded, loop-free).
			detour, ok := n.rerouteAround(cur, dst)
			if !ok {
				n.drop(&del, cur, DropNoReroute, fmt.Sprintf("from %v", cur))
				return del, nil
			}
			del.Rerouted++
			n.m.reroutes.Inc()
			if n.cfg.Trace {
				del.Trace = append(del.Trace, obs.HopEvent{
					Hop: del.Hops, Cause: obs.CauseReroute, Site: cur.String(),
					Digit: -1, Detail: fmt.Sprintf("next site %v failed", next),
				})
			}
			prefixHops := del.Hops
			// forward (not Inject): the tail continuation is the same
			// message, already counted as sent.
			sub, err := n.forward(Message{Control: msg.Control, Source: cur, Dest: dst, Route: detour, Payload: payload})
			if err != nil {
				return Delivery{}, err
			}
			del.Hops += sub.Hops
			del.Delivered = sub.Delivered
			del.DropReason = sub.DropReason
			del.DropDetail = sub.DropDetail
			del.Rerouted += sub.Rerouted
			if n.cfg.Trace && len(sub.Trace) > 1 {
				// Skip the tail's injection event and renumber its hops
				// to continue the prefix walk.
				for _, ev := range sub.Trace[1:] {
					ev.Hop += prefixHops
					del.Trace = append(del.Trace, ev)
				}
			}
			// forward counted the tail (delivery and sub.Hops); account
			// for the prefix hops walked before the failure was met.
			if sub.Delivered {
				n.totalHops += prefixHops
			}
			return del, nil
		}
		n.crossLink(&del, cur, next, hop, digit)
		cur = next
	}
}
