// Package ring implements Xen-style shared-memory I/O rings (§4.3): a
// bounded, bi-directional channel on which a frontend places requests and a
// backend places responses into the same slot pool. Blocked parties wake on
// the ring's own signals; each push also makes Xen's notify decision, which
// Stats counts.
//
// As in Xen, all policy lives with the users of the ring: the ring itself
// moves opaque messages and enforces only the slot discipline (a slot is
// consumed by a request and freed when its response is consumed). This is
// deliberately the paper's point about rings being a vector for malformed
// data — backends must validate what they pop.
//
// # Notification suppression
//
// The ring carries Xen's req_event/rsp_event idiom: a producer only
// notifies when the consumer has asked to be woken. Consumers arm the
// threshold with the RING_FINAL_CHECK_FOR_REQUESTS dance — set the event
// index to cons+1, then re-check for work before sleeping, so a racing push
// is never missed. A consumer that keeps draining (a busy pump
// servicing batches) therefore never re-arms, and the producer's pushes are
// suppressed down to one notify per sleep/wake cycle instead of one per
// descriptor. Stats() exposes the sent/suppressed split so drivers can
// gate the suppression ratio in benchmarks.
//
// Storage is a fixed circular buffer sized at construction — the model of
// the shared ring page — so the batch push/pop hot path allocates nothing.
package ring

import (
	"fmt"

	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

// DefaultSlots is the slot count of a single-page ring with small descriptors,
// matching Xen's RING_SIZE for netif/blkif rings.
const DefaultSlots = 32

// Stats counts ring traffic and notify decisions since construction/Reset.
type Stats struct {
	// NotifiesToBack counts request-push notifies actually delivered to the
	// request consumer; SuppressedToBack counts pushes whose notify was
	// elided because the consumer had not re-armed req_event.
	NotifiesToBack   int64
	SuppressedToBack int64
	// NotifiesToFront / SuppressedToFront are the same split for
	// response-push notifies toward the response consumer.
	NotifiesToFront   int64
	SuppressedToFront int64
	// ReqPushed totals request descriptors, for descriptors-per-wakeup
	// ratios.
	ReqPushed int64
}

// Ring is a shared request/response ring. Req and Resp are the descriptor
// types of the protocol spoken over the ring.
type Ring[Req, Resp any] struct {
	slots int
	used  int // slots held by in-flight requests or unconsumed responses

	// Circular buffers, both sized slots (responses can never outnumber the
	// slots their requests reserved). Indices are monotonic, as in Xen's
	// shared ring: pending count = prod - cons, buffer position = idx % slots.
	reqs               []Req
	resps              []Resp
	reqProd, reqCons   uint64
	respProd, respCons uint64

	// Event thresholds (Xen's req_event/rsp_event): a producer notifies only
	// when its push moves prod across the threshold. Consumers arm them via
	// the final-check dance in the blocking pops.
	reqEvent, rspEvent uint64

	reqSig  *sim.Signal // new request available
	respSig *sim.Signal // new response available

	// NotifyBack and NotifyFront, when set, are invoked after a push that
	// crosses the peer's event threshold. No driver sets them: blocked
	// parties wake on the ring's own signals, the notify decision is counted
	// in Stats, and drivers price the upcall in their per-batch CPU charge.
	// They are where an explicit event-channel hop would attach.
	//
	//xoarlint:allow(unused) ROADMAP item 2 decides whether notifications go through the event channel here
	NotifyBack func()
	//xoarlint:allow(unused) ROADMAP item 2 decides whether notifications go through the event channel here
	NotifyFront func()

	// AlwaysNotify disables suppression and fires the notify hooks on every
	// push — the pre-req_event behaviour, kept as the per-descriptor baseline
	// for the batching ablation.
	AlwaysNotify bool

	stats  Stats
	broken bool
}

// New returns a ring with the given slot count bound to env.
func New[Req, Resp any](env *sim.Env, slots int) *Ring[Req, Resp] {
	if slots <= 0 {
		slots = DefaultSlots
	}
	return &Ring[Req, Resp]{
		slots:    slots,
		reqs:     make([]Req, slots),
		resps:    make([]Resp, slots),
		reqEvent: 1, // notify on the first push, as RING_INIT does
		rspEvent: 1,
		reqSig:   sim.NewSignal(env),
		respSig:  sim.NewSignal(env),
	}
}

// Full reports whether a request push would block.
func (r *Ring[Req, Resp]) Full() bool { return r.used >= r.slots }

// Broken reports whether the ring has been disconnected.
func (r *Ring[Req, Resp]) Broken() bool { return r.broken }

// Stats returns a snapshot of the ring's traffic counters.
func (r *Ring[Req, Resp]) Stats() Stats { return r.stats }

// Break disconnects the ring: all blocked parties wake and every subsequent
// operation fails. Used when a backend microreboots or a domain dies.
func (r *Ring[Req, Resp]) Break() {
	if r.broken {
		return
	}
	r.broken = true
	r.reqSig.Broadcast()
	r.respSig.Broadcast()
}

// Reset restores a broken ring to an empty connected state. The reconnection
// handshake (regranting the ring page, rebinding the event channel) is the
// drivers' job; Reset models the fresh ring page that results. Traffic
// counters survive so restart-spanning experiments keep their totals.
func (r *Ring[Req, Resp]) Reset() {
	r.broken = false
	r.used = 0
	r.reqProd, r.reqCons = 0, 0
	r.respProd, r.respCons = 0, 0
	r.reqEvent, r.rspEvent = 1, 1
	clear(r.reqs)
	clear(r.resps)
}

// errBroken is the error returned on a disconnected ring.
func (r *Ring[Req, Resp]) errBroken(op string) error {
	return fmt.Errorf("ring: %s on broken ring: %w", op, xtypes.ErrShutdown)
}

// pushedRequests runs the producer's post-push protocol: wake sim-level
// waiters, then fire the notify hook iff the push crossed req_event
// (RING_PUSH_REQUESTS_AND_CHECK_NOTIFY).
func (r *Ring[Req, Resp]) pushedRequests(oldProd uint64) {
	r.stats.ReqPushed += int64(r.reqProd - oldProd)
	r.reqSig.Broadcast()
	if r.AlwaysNotify || r.reqProd-r.reqEvent < r.reqProd-oldProd {
		r.stats.NotifiesToBack++
		if r.NotifyBack != nil {
			r.NotifyBack()
		}
	} else {
		r.stats.SuppressedToBack++
	}
}

// pushedResponses is the response-side counterpart of pushedRequests.
func (r *Ring[Req, Resp]) pushedResponses(oldProd uint64) {
	r.respSig.Broadcast()
	if r.AlwaysNotify || r.respProd-r.rspEvent < r.respProd-oldProd {
		r.stats.NotifiesToFront++
		if r.NotifyFront != nil {
			r.NotifyFront()
		}
	} else {
		r.stats.SuppressedToFront++
	}
}

// TryPushRequest places a request on the ring without blocking; ok is false
// if the ring is full or broken.
func (r *Ring[Req, Resp]) TryPushRequest(req Req) bool {
	if r.broken || r.used >= r.slots {
		return false
	}
	old := r.reqProd
	r.used++
	r.reqs[int(r.reqProd%uint64(r.slots))] = req
	r.reqProd++
	r.pushedRequests(old)
	return true
}

// TryPushRequestBatch pushes as many of reqs as fit, returning the count.
// The whole batch makes at most one notify decision — the batching win the
// split drivers rely on.
//
//xoarlint:hot bench=BenchmarkMicro_RingBatchPop
func (r *Ring[Req, Resp]) TryPushRequestBatch(reqs []Req) int {
	if r.broken || len(reqs) == 0 {
		return 0
	}
	old := r.reqProd
	n := 0
	for n < len(reqs) && r.used < r.slots {
		r.reqs[int(r.reqProd%uint64(r.slots))] = reqs[n]
		r.reqProd++
		r.used++
		n++
	}
	if n > 0 {
		r.pushedRequests(old)
	}
	return n
}

// PopRequest removes the next request, blocking p while none are queued.
// Before sleeping it arms req_event (RING_FINAL_CHECK_FOR_REQUESTS), so the
// producer's next push is notified rather than suppressed.
func (r *Ring[Req, Resp]) PopRequest(p *sim.Proc) (Req, error) {
	var zero Req
	for {
		if r.broken {
			return zero, r.errBroken("pop-request")
		}
		if r.reqProd > r.reqCons {
			req := r.reqs[int(r.reqCons%uint64(r.slots))]
			r.reqCons++
			return req, nil
		}
		r.reqEvent = r.reqCons + 1
		if r.reqProd > r.reqCons {
			continue // a push raced the final check: don't sleep
		}
		r.reqSig.Wait(p)
	}
}

// TryPopRequest removes the next request without blocking. It does not arm
// req_event: pollers get no notifies.
func (r *Ring[Req, Resp]) TryPopRequest() (Req, bool) {
	var zero Req
	if r.broken || r.reqProd == r.reqCons {
		return zero, false
	}
	req := r.reqs[int(r.reqCons%uint64(r.slots))]
	r.reqCons++
	return req, true
}

// TryPopRequestBatch pops up to len(buf) queued requests into buf and
// returns the count, without blocking or arming req_event.
//
//xoarlint:hot bench=BenchmarkMicro_RingBatchPop
func (r *Ring[Req, Resp]) TryPopRequestBatch(buf []Req) int {
	if r.broken {
		return 0
	}
	n := 0
	for n < len(buf) && r.reqProd > r.reqCons {
		buf[n] = r.reqs[int(r.reqCons%uint64(r.slots))]
		r.reqCons++
		n++
	}
	return n
}

// PopRequestBatch blocks p until at least one request is queued, then drains
// up to len(buf) of them into buf — one wakeup servicing a whole batch.
//
//xoarlint:hot
func (r *Ring[Req, Resp]) PopRequestBatch(p *sim.Proc, buf []Req) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("ring: pop-request-batch with empty buffer: %w", xtypes.ErrInvalid)
	}
	for {
		if r.broken {
			return 0, r.errBroken("pop-request-batch")
		}
		if n := r.TryPopRequestBatch(buf); n > 0 {
			return n, nil
		}
		r.reqEvent = r.reqCons + 1
		if r.reqProd > r.reqCons {
			continue
		}
		r.reqSig.Wait(p)
	}
}

// PushResponse places a response on the ring. The slot stays occupied until
// the frontend consumes the response. Responses never block: the slot was
// reserved by the corresponding request.
//
//xoarlint:hot
func (r *Ring[Req, Resp]) PushResponse(resp Resp) error {
	if r.broken {
		return r.errBroken("push-response")
	}
	old := r.respProd
	r.resps[int(r.respProd%uint64(r.slots))] = resp
	r.respProd++
	r.pushedResponses(old)
	return nil
}

// PushResponseBatch places every response in resps on the ring with a single
// notify decision for the batch.
//
//xoarlint:hot bench=BenchmarkMicro_RingBatchPop
func (r *Ring[Req, Resp]) PushResponseBatch(resps []Resp) error {
	if r.broken {
		return r.errBroken("push-response-batch")
	}
	if len(resps) == 0 {
		return nil
	}
	old := r.respProd
	for _, resp := range resps {
		r.resps[int(r.respProd%uint64(r.slots))] = resp
		r.respProd++
	}
	r.pushedResponses(old)
	return nil
}

// popOneResponse removes the next queued response and frees its slot. The
// caller has checked availability.
func (r *Ring[Req, Resp]) popOneResponse() Resp {
	resp := r.resps[int(r.respCons%uint64(r.slots))]
	r.respCons++
	r.used--
	return resp
}

// PopResponse removes the next response, blocking p while none are queued,
// and frees the slot. Before sleeping it arms rsp_event so the backend's
// next completion push is notified.
//
//xoarlint:hot
func (r *Ring[Req, Resp]) PopResponse(p *sim.Proc) (Resp, error) {
	var zero Resp
	for {
		if r.broken {
			return zero, r.errBroken("pop-response")
		}
		if r.respProd > r.respCons {
			return r.popOneResponse(), nil
		}
		r.rspEvent = r.respCons + 1
		if r.respProd > r.respCons {
			continue
		}
		r.respSig.Wait(p)
	}
}

// TryPopResponse removes the next response without blocking. Like
// TryPopRequest it refuses on a broken ring — a frontend must not keep
// consuming (and freeing slots on) a ring that is mid-microreboot.
//
//xoarlint:hot
func (r *Ring[Req, Resp]) TryPopResponse() (Resp, bool) {
	var zero Resp
	if r.broken || r.respProd == r.respCons {
		return zero, false
	}
	return r.popOneResponse(), true
}

// TryPopResponseBatch pops up to len(buf) queued responses into buf and
// returns the count, without blocking or arming rsp_event.
//
//xoarlint:hot bench=BenchmarkMicro_RingBatchPop
//xoarlint:allow(unused) hot root bound to the gated BenchmarkMicro_RingBatchPop
func (r *Ring[Req, Resp]) TryPopResponseBatch(buf []Resp) int {
	if r.broken {
		return 0
	}
	n := 0
	for n < len(buf) && r.respProd > r.respCons {
		buf[n] = r.popOneResponse()
		n++
	}
	return n
}
