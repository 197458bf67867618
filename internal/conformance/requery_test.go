package conformance

import (
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/bitarray"
	"repro/internal/des"
	"repro/internal/live"
	"repro/internal/netrt"
	"repro/internal/sim"
)

// requeryPeer downloads the whole array twice with the identical (tag,
// indices) query: once from Init, and again when the first reply lands.
// It outputs the second reply and terminates.
type requeryPeer struct {
	ctx     sim.Context
	replies int
}

func (p *requeryPeer) Init(ctx sim.Context) {
	p.ctx = ctx
	p.query()
}

func (p *requeryPeer) query() {
	all := make([]int, p.ctx.L())
	for i := range all {
		all[i] = i
	}
	p.ctx.Query(7, all)
}

func (p *requeryPeer) OnMessage(sim.PeerID, sim.Message) {}

func (p *requeryPeer) OnQueryReply(r sim.QueryReply) {
	if p.replies++; p.replies == 1 {
		p.query()
		return
	}
	out := bitarray.New(p.ctx.L())
	for j, idx := range r.Indices {
		out.Set(idx, r.Bits.Get(j))
	}
	p.ctx.Output(out)
	p.ctx.Terminate()
}

// TestRequeryChargedTwice pins the Q charge point: Q charges each
// protocol Query call once, at issue, on every runtime. A peer that
// issues the identical query twice asked the source for 2·L bits, so
// Q = 2·L on des, live and tcp alike — no runtime may fold the repeat
// into the first call.
func TestRequeryChargedTwice(t *testing.T) {
	const n, L = 3, 64
	newPeer := func(sim.PeerID) sim.Peer { return &requeryPeer{} }
	spec := func() *sim.Spec {
		return &sim.Spec{
			Config:  sim.Config{N: n, L: L, MsgBits: 64, Seed: 1},
			NewPeer: newPeer,
			Delays:  adversary.NewRandomUnit(1),
		}
	}
	lrt := live.New()
	lrt.TimeScale = 200 * time.Microsecond
	runs := []struct {
		name string
		run  func() (*sim.Result, error)
	}{
		{"des", func() (*sim.Result, error) { return des.New().Run(spec()) }},
		{"live", func() (*sim.Result, error) { return lrt.Run(spec()) }},
		{"tcp", func() (*sim.Result, error) {
			return netrt.Run(netrt.Config{N: n, L: L, MsgBits: 64, Seed: 1,
				NewPeer: newPeer, Timeout: 30 * time.Second})
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			res, err := r.run()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("incorrect: %v", res.Failures)
			}
			if res.Q != 2*L {
				t.Errorf("Q = %d, want %d (two identical queries of L=%d bits)", res.Q, 2*L, L)
			}
			for _, ps := range res.PerPeer {
				if ps.QueryCalls != 2 {
					t.Errorf("peer %d: QueryCalls = %d, want 2", ps.ID, ps.QueryCalls)
				}
			}
		})
	}
}
