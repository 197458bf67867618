// Package explore is a bounded-exhaustive schedule explorer — a miniature
// model checker for the DR protocols. Where the coverage-guided schedule
// fuzzer (package des's fuzz targets) samples interleavings, explore
// ENUMERATES them: it re-executes a protocol once per distinct delivery
// order over the first MaxChoices scheduling decisions (the tail of each
// execution follows a fixed FIFO order), checking every execution for
// correctness and deadlock.
//
// The state space is the tree of "which pending event is delivered next"
// decisions; its fan-out is the number of in-flight events at each step,
// so exhaustive exploration is only feasible for tiny configurations
// (n ≤ 4, L ≤ a few dozen bits, MaxChoices ≤ ~10). That is exactly the
// regime where asynchronous protocol bugs like the Algorithm 1 termination
// deadlock live — the fuzzer found it at n = 4 — and where "verified for
// ALL schedules up to depth D" is a meaningful statement.
//
// The explorer runs its own small engine sharing the sim contract: event
// delivery is chosen by a prefix of choice indices instead of virtual
// time; crash action-counting matches package des. Delays are irrelevant
// — reordering subsumes them.
package explore

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/bitarray"
	"repro/internal/sim"
	"repro/internal/source"
)

// Config bounds one exploration.
type Config struct {
	// N, T, L are the model parameters.
	N, T, L int
	// Seed fixes the input and peer coins across all schedules.
	Seed int64
	// NewPeer builds the protocol under test.
	NewPeer func(sim.PeerID) sim.Peer
	// CrashPoints optionally crashes peers at action counts (they are
	// the faulty set; len ≤ T).
	CrashPoints map[sim.PeerID]int
	// MaxChoices is the explored decision depth D (default 8).
	MaxChoices int
	// Budget caps the number of executions (default 200000); if the
	// full tree is larger, Report.Exhaustive is false.
	Budget int
}

func (c *Config) validate() error {
	if c.NewPeer == nil {
		return errors.New("explore: missing NewPeer")
	}
	sc := sim.Config{N: c.N, T: c.T, L: c.L, MsgBits: 64, Seed: c.Seed}
	if err := sc.Validate(); err != nil {
		return err
	}
	if len(c.CrashPoints) > c.T {
		return fmt.Errorf("explore: %d crash points exceeds t=%d", len(c.CrashPoints), c.T)
	}
	return nil
}

// Report summarizes an exploration.
type Report struct {
	// Executions is the number of schedules run.
	Executions int
	// Exhaustive reports the full depth-D tree was covered within Budget.
	Exhaustive bool
	// Failures counts executions with wrong outputs.
	Failures int
	// Deadlocks counts executions that ran out of events early.
	Deadlocks int
	// FirstBad holds the choice prefix of the first failing or
	// deadlocked execution (replayable via Replay), nil if none.
	FirstBad []int
	// MaxFanout is the largest branching factor seen at any choice.
	MaxFanout int
}

// Ok reports a fully clean exploration.
func (r *Report) Ok() bool { return r.Failures == 0 && r.Deadlocks == 0 }

// String renders a one-line summary.
func (r *Report) String() string {
	mode := "sampled"
	if r.Exhaustive {
		mode = "exhaustive"
	}
	return fmt.Sprintf("%d executions (%s, max fan-out %d): %d failures, %d deadlocks",
		r.Executions, mode, r.MaxFanout, r.Failures, r.Deadlocks)
}

// Run explores all delivery schedules of the configuration up to the
// choice depth, depth-first in mixed-radix order.
func Run(cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MaxChoices <= 0 {
		cfg.MaxChoices = 8
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 200000
	}
	input := (&sim.Config{N: cfg.N, T: cfg.T, L: cfg.L, MsgBits: 64, Seed: cfg.Seed}).ResolveInput()

	rep := &Report{Exhaustive: true}
	prefix := []int{}
	for {
		if rep.Executions >= cfg.Budget {
			rep.Exhaustive = false
			return rep, nil
		}
		res := execute(&cfg, input, prefix)
		rep.Executions++
		if res.fanout > rep.MaxFanout {
			rep.MaxFanout = res.fanout
		}
		bad := false
		if res.deadlocked {
			rep.Deadlocks++
			bad = true
		} else if !res.correct {
			rep.Failures++
			bad = true
		}
		if bad && rep.FirstBad == nil {
			rep.FirstBad = append([]int(nil), prefix...)
		}
		// Advance the mixed-radix odometer over the branching factors
		// this execution actually saw.
		next, ok := advance(prefix, res.radix)
		if !ok {
			return rep, nil
		}
		prefix = next
	}
}

// Replay runs a single schedule (e.g., Report.FirstBad) and returns its
// correctness and deadlock status.
func Replay(cfg Config, prefix []int) (correct, deadlocked bool, err error) {
	if err := cfg.validate(); err != nil {
		return false, false, err
	}
	input := (&sim.Config{N: cfg.N, T: cfg.T, L: cfg.L, MsgBits: 64, Seed: cfg.Seed}).ResolveInput()
	res := execute(&cfg, input, prefix)
	return res.correct, res.deadlocked, nil
}

// advance increments the prefix as a mixed-radix counter whose digit
// radixes are the observed branching factors; it grows the prefix up to
// the recorded depth. Returns false when the space is exhausted.
func advance(prefix, radix []int) ([]int, bool) {
	// Extend to the deepest recorded choice depth first: enumeration
	// visits prefix-extensions before siblings.
	if len(prefix) < len(radix) {
		out := append(append([]int(nil), prefix...), make([]int, len(radix)-len(prefix))...)
		// All-zero extension was just executed as part of this run
		// (choices beyond the prefix default to 0), so step once.
		return increment(out, radix)
	}
	return increment(append([]int(nil), prefix...), radix)
}

func increment(digits, radix []int) ([]int, bool) {
	for i := len(digits) - 1; i >= 0; i-- {
		limit := 1
		if i < len(radix) {
			limit = radix[i]
		}
		digits[i]++
		if digits[i] < limit {
			return digits[:], true
		}
		digits[i] = 0
		digits = digits[:i] // carry: shrink and continue
	}
	return nil, false
}

// --- the choice-driven engine -------------------------------------------

type xevent struct {
	kind int // 1 start, 2 msg, 3 qreply
	to   sim.PeerID
	from sim.PeerID
	msg  sim.Message
	qr   sim.QueryReply
}

type xresult struct {
	correct    bool
	deadlocked bool
	radix      []int
	fanout     int
}

type xengine struct {
	cfg     *Config
	input   *bitarray.Array
	pending []*xevent
	peers   []*xpeer
	prefix  []int
	step    int
	radix   []int
	fanout  int
	current sim.PeerID
}

type xpeer struct {
	id         sim.PeerID
	impl       sim.Peer
	rng        *rand.Rand
	crashPoint int
	actions    int
	crashed    bool
	terminated bool
	started    bool
	buffer     []*xevent // pre-start deliveries
	output     *bitarray.Array
}

func execute(cfg *Config, input *bitarray.Array, prefix []int) *xresult {
	e := &xengine{cfg: cfg, input: input, prefix: prefix, current: -1}
	for i := 0; i < cfg.N; i++ {
		id := sim.PeerID(i)
		p := &xpeer{
			id:         id,
			impl:       cfg.NewPeer(id),
			rng:        rand.New(rand.NewSource(cfg.Seed + int64(i)*0x9e3779b97f4a7c + 1)),
			crashPoint: -1,
		}
		if pt, faulty := cfg.CrashPoints[id]; faulty {
			p.crashPoint = pt
		}
		e.peers = append(e.peers, p)
		e.pending = append(e.pending, &xevent{kind: 1, to: id})
	}

	maxSteps := 200*cfg.N*cfg.N + 64*cfg.N*cfg.L + 100000
	for steps := 0; len(e.pending) > 0 && steps < maxSteps; steps++ {
		if e.allHonestDone() {
			break
		}
		idx := 0
		if e.step < cfg.MaxChoices && len(e.pending) > 1 {
			// A real decision point: record its fan-out and take the
			// prefix's digit (0 beyond the prefix).
			e.radix = append(e.radix, len(e.pending))
			if len(e.pending) > e.fanout {
				e.fanout = len(e.pending)
			}
			if e.step < len(e.prefix) {
				idx = e.prefix[e.step] % len(e.pending)
			}
			e.step++
		}
		ev := e.pending[idx]
		e.pending = append(e.pending[:idx], e.pending[idx+1:]...)
		e.dispatch(ev)
	}

	res := &xresult{radix: e.radix, fanout: e.fanout}
	res.correct = true
	for _, p := range e.peers {
		if p.crashPoint >= 0 {
			continue // faulty: exempt
		}
		if !p.terminated || p.output == nil || !p.output.Equal(input) {
			res.correct = false
		}
	}
	if !res.correct && !e.allHonestDone() && len(e.pending) == 0 {
		res.deadlocked = true
	}
	return res
}

func (e *xengine) allHonestDone() bool {
	for _, p := range e.peers {
		if p.crashPoint < 0 && !p.terminated {
			return false
		}
	}
	return true
}

func (e *xengine) dispatch(ev *xevent) {
	p := e.peers[ev.to]
	if p.crashed || p.terminated {
		return
	}
	if !p.started && ev.kind != 1 {
		p.buffer = append(p.buffer, ev)
		return
	}
	if !e.act(p) {
		return
	}
	e.deliver(p, ev)
	if ev.kind == 1 {
		for _, buf := range p.buffer {
			if p.crashed || p.terminated {
				break
			}
			if !e.act(p) {
				break
			}
			e.deliver(p, buf)
		}
		p.buffer = nil
	}
}

// act consumes one crash action; false means the peer just crashed.
func (e *xengine) act(p *xpeer) bool {
	if p.crashPoint < 0 {
		return true
	}
	p.actions++
	if p.actions > p.crashPoint {
		p.crashed = true
		return false
	}
	return true
}

func (e *xengine) deliver(p *xpeer, ev *xevent) {
	e.current = p.id
	defer func() { e.current = -1 }()
	switch ev.kind {
	case 1:
		p.started = true
		p.impl.Init(&xctx{e: e, p: p})
	case 2:
		p.impl.OnMessage(ev.from, ev.msg)
	case 3:
		p.impl.OnQueryReply(ev.qr)
	}
}

type xctx struct {
	e *xengine
	p *xpeer
}

var _ sim.Context = (*xctx)(nil)

func (c *xctx) ID() sim.PeerID { return c.p.id }
func (c *xctx) N() int         { return c.e.cfg.N }
func (c *xctx) T() int         { return c.e.cfg.T }
func (c *xctx) L() int         { return c.e.cfg.L }
func (c *xctx) MsgBits() int   { return 64 }

// Send implements sim.Context.
func (c *xctx) Send(to sim.PeerID, m sim.Message) {
	if c.p.crashed || c.p.terminated || to == c.p.id || to < 0 || int(to) >= c.e.cfg.N {
		return
	}
	if !c.e.act(c.p) {
		return
	}
	c.e.pending = append(c.e.pending, &xevent{kind: 2, to: to, from: c.p.id, msg: m})
}

// Broadcast implements sim.Context.
func (c *xctx) Broadcast(m sim.Message) {
	for i := 0; i < c.e.cfg.N; i++ {
		if sim.PeerID(i) != c.p.id {
			c.Send(sim.PeerID(i), m)
		}
	}
}

// Query implements sim.Context.
func (c *xctx) Query(tag int, indices []int) {
	if c.p.crashed || c.p.terminated {
		return
	}
	if !c.e.act(c.p) {
		return
	}
	call := source.NewCall(tag, indices, nil)
	c.e.pending = append(c.e.pending, &xevent{
		kind: 3, to: c.p.id,
		qr: sim.QueryReply{Tag: tag, Indices: call.Indices, Bits: call.Answer(c.e.input)},
	})
}

// Output implements sim.Context.
func (c *xctx) Output(out *bitarray.Array) {
	if !c.p.crashed && !c.p.terminated {
		c.p.output = out.Clone()
	}
}

// Terminate implements sim.Context.
func (c *xctx) Terminate() {
	if !c.p.crashed {
		c.p.terminated = true
	}
}

// Rand implements sim.Context.
func (c *xctx) Rand() *rand.Rand { return c.p.rng }

// Now implements sim.Context. The explorer has no clock; scheduling is
// pure event order.
func (c *xctx) Now() float64 { return float64(c.e.step) }

// Logf implements sim.Context.
func (c *xctx) Logf(string, ...any) {}
