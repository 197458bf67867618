package live

// Fault planes of the live runtime: the churn adversary (crash at an
// action count, rejoin warm after a scaled downtime) and the faulty
// source tier (per-peer retry/backoff/breaker clients over a
// source.FaultPlan). Both port the des runtime's semantics onto wall
// clocks: what des schedules as events (evRejoin, evSrcIssue, evSrcFail,
// evSrcWake) the live runtime schedules as tracked timer callbacks, so
// the same protocols face the same adversary under real concurrency —
// with the race detector watching the recovery paths.

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/source"
)

// queryDelay returns the adversary's query round-trip latency, floored
// like message delays.
func (p *livePeer) queryDelay() float64 {
	d := p.w.spec.Delays.QueryDelay(p.id, p.w.now())
	if d <= 0 {
		d = 0
	}
	return d
}

// issueCall admits one logical query through the peer's breaker and
// fetches it, parking it while the breaker is open. Queries are never
// abandoned: the protocol is owed a reply, so a parked call waits for
// the source to heal (graceful degradation, not failure).
func (p *livePeer) issueCall(call *source.Call) {
	p.mu.Lock()
	if p.terminated || p.crashed || p.stopped {
		p.mu.Unlock()
		return
	}
	if p.client != nil {
		if ok, wake := p.client.Admit(p.w.now()); !ok {
			p.parked = append(p.parked, call)
			p.scheduleWake(wake)
			p.mu.Unlock()
			return
		}
	}
	p.mu.Unlock()
	p.fetchCall(call)
}

// fetchCall performs one source attempt. Success schedules the
// protocol's query reply (warm bits merged in); failure schedules the
// moment the peer's client learns of it — after the query deadline for
// lost replies, after one round trip for active refusals.
func (p *livePeer) fetchCall(call *source.Call) {
	call.Attempt++
	rep, err := p.w.src.Fetch(source.Request{
		Peer: int(p.id), Indices: call.Fetch, Ordinal: call.Ordinal,
		Attempt: call.Attempt, Now: p.w.now(),
	})
	if err != nil {
		if p.client == nil {
			// Without a fault plan the tier is mirror+trusted, which
			// always falls back to a correct answer.
			panic(fmt.Sprintf("live: source failed without a fault plan: %v", err))
		}
		kind := source.KindOf(err)
		wait := p.queryDelay()
		if kind == source.KindTimeout {
			// A lost reply is only discovered by the deadline expiring.
			wait = p.client.Policy().Deadline
		}
		p.w.after(wait, func() { p.srcFail(call, kind) })
		return
	}
	p.w.after(p.queryDelay()+rep.Latency, func() {
		// The reply crossed the (faulty) source: feed the breaker. A
		// success closing a half-open breaker releases every parked query.
		var flushed []*source.Call
		p.mu.Lock()
		if p.client != nil && p.client.OnSuccess(p.w.now()) {
			flushed = p.parked
			p.parked = nil
		}
		p.mu.Unlock()
		for _, fc := range flushed {
			p.issueCall(fc)
		}
		p.enqueue(delivery{kind: dlQueryReply,
			qr: sim.QueryReply{Tag: call.Tag, Indices: call.Indices, Bits: call.Merged(rep.Bits)}})
	})
}

// srcFail lets the client rule on a now-known failure: either schedule
// the backed-off retry or park the call behind the opened breaker. Calls
// of a crashed incarnation die here, exactly as the des engine drops
// their events.
func (p *livePeer) srcFail(call *source.Call, kind source.Kind) {
	p.mu.Lock()
	if p.terminated || p.crashed || p.stopped {
		p.mu.Unlock()
		return
	}
	now := p.w.now()
	retryAt, park := p.client.OnFailure(now, kind, call.Ordinal, call.Attempt)
	if park {
		// The attempt counter stays monotonic across parking: each probe
		// of this call rolls fresh fault decisions, which is what makes
		// the probe loop live under any FailRate/TimeoutRate < 1.
		p.parked = append(p.parked, call)
		p.scheduleWake(p.client.WakeAt())
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.w.after(retryAt-now, func() { p.issueCall(call) })
}

// scheduleWake (mu held) arms at most one pending breaker wake per peer;
// the handler re-evaluates and re-arms if it fired early, so a single
// outstanding wake is enough for liveness.
func (p *livePeer) scheduleWake(at float64) {
	if p.wakeSet {
		return
	}
	p.wakeSet = true
	p.w.after(at-p.w.now(), p.srcWake)
}

// srcWake fires when an open breaker's cooldown may have elapsed: it
// releases one parked call as the half-open probe. The probe's outcome
// drives everything else — success flushes the parked queue, failure
// re-opens and arms the next wake.
func (p *livePeer) srcWake() {
	p.mu.Lock()
	p.wakeSet = false
	if p.client == nil || len(p.parked) == 0 || p.terminated || p.crashed || p.stopped {
		p.mu.Unlock()
		return
	}
	if probe, at := p.client.Wake(p.w.now()); !probe {
		if at > 0 {
			p.scheduleWake(at)
		}
		p.mu.Unlock()
		return
	}
	call := p.parked[0]
	p.parked = p.parked[1:]
	p.mu.Unlock()
	p.fetchCall(call)
}

// rejoin revives a crashed churn peer after its downtime: a fresh
// protocol instance restarts and its subsequent queries are answered
// from the persisted verified-index state where possible (see
// source.NewCall).
// The recovered peer runs honestly to completion — recovery is the whole
// point — but stays accounted faulty, so correctness aggregates never
// depend on it.
func (p *livePeer) rejoin() {
	p.mu.Lock()
	if !p.crashed || p.terminated || p.rejoined || p.stopped {
		p.mu.Unlock()
		return
	}
	p.crashed = false
	p.rejoined = true
	p.warm = p.persist
	p.stats.Rejoined = true
	p.crashPoint = -1
	p.actions = 0
	p.queue = nil  // deliveries addressed to the dead incarnation
	p.parked = nil // in-flight source calls died with it
	p.wakeSet = false
	p.impl = p.w.spec.NewPeer(p.id)
	if p.ready != nil {
		// Scheduler mode: owe a fresh Init; a worker serves it next. The
		// crashing worker's serve() returned without clearing queued (no
		// wakeup could matter once crashed), so clear it here or the
		// ready push would be suppressed forever.
		p.queued = false
		p.inited = false
		p.markReady()
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	// Goroutine mode: the old loop exited on the crash, so this timer
	// goroutine becomes the rejoined incarnation's loop. It stays tracked
	// through w.timers until termination or stop.
	p.loop()
}
