package crashk

import (
	"math/rand"
	"testing"

	"repro/internal/bitarray"
	"repro/internal/intset"
	"repro/internal/sim"
)

// waitingPeer returns peer 0 of an 8-peer, 2-fault execution over 256
// bits, initialized and then parked in stage 3 of phase 1, where it
// counts stage-2 answers (it needs n−t−1 = 5 of them to advance).
func waitingPeer(t *testing.T) (*Peer, *sim.Env) {
	t.Helper()
	env := &sim.Env{ID: 0, N: 8, T: 2, L: 256, MsgBits: 64, Rand: rand.New(rand.NewSource(1))}
	p := &Peer{}
	p.Step(env, sim.Event{Kind: sim.EvInit}, &sim.Emitter{})
	if p.phase != 1 {
		t.Fatalf("init left phase %d, want 1", p.phase)
	}
	p.stage = stWait2
	return p, env
}

// TestMalformedResp2 feeds stage-2 answers whose packing is inconsistent:
// none may panic, no bad item may be learned, and each still counts
// toward the n−t answers exactly once.
func TestMalformedResp2(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type span struct{ lo, hi, off int } // off: first value's bit in Values
	cases := []struct {
		name    string
		msg     *Resp2
		learned []span // well-formed items, learned from Values at off
		unknown []span // bad items' ranges, which must stay unknown
	}{
		{
			name: "answered shorter than items",
			msg: &Resp2{Phase: 1, IdxBits: 8, Items: []Req2Item{
				{Q: 3, Indices: intset.FromRange(0, 8)},
				{Q: 4, Indices: intset.FromRange(8, 16)},
			}, Answered: []bool{true}, Values: bitarray.Random(rng, 8)},
			learned: []span{{0, 8, 0}},
			unknown: []span{{8, 16, 0}},
		},
		{
			name: "values too short",
			msg: &Resp2{Phase: 1, IdxBits: 8, Items: []Req2Item{
				{Q: 3, Indices: intset.FromRange(0, 8)},
				{Q: 4, Indices: intset.FromRange(8, 24)},
			}, Answered: []bool{true, true}, Values: bitarray.Random(rng, 12)},
			learned: []span{{0, 8, 0}},
			unknown: []span{{8, 24, 0}},
		},
		{
			name: "out-of-range index",
			msg: &Resp2{Phase: 1, IdxBits: 8, Items: []Req2Item{
				{Q: 3, Indices: intset.FromRange(250, 300)},
				{Q: 4, Indices: intset.FromRange(0, 4)},
			}, Answered: []bool{true, true}, Values: bitarray.Random(rng, 54)},
			learned: []span{{0, 4, 50}},
			unknown: []span{{250, 256, 0}},
		},
		{
			name: "nil values",
			msg: &Resp2{Phase: 1, IdxBits: 8, Items: []Req2Item{
				{Q: 3, Indices: intset.FromRange(0, 8)},
			}, Answered: []bool{true}},
			unknown: []span{{0, 8, 0}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, env := waitingPeer(t)
			p.Step(env, sim.Event{Kind: sim.EvMessage, From: 3, Msg: tc.msg}, &sim.Emitter{})
			if p.resp2Count != 1 || p.stage != stWait2 {
				t.Fatalf("resp2Count %d stage %d, want 1 answer counted in stage %d", p.resp2Count, p.stage, stWait2)
			}
			for _, u := range tc.unknown {
				for x := u.lo; x < u.hi; x++ {
					if p.track.Known(x) {
						t.Fatalf("bit %d learned from a malformed item", x)
					}
				}
			}
			for _, l := range tc.learned {
				for x := l.lo; x < l.hi; x++ {
					v, ok := p.track.Get(x)
					if want := tc.msg.Values.Get(l.off + x - l.lo); !ok || v != want {
						t.Fatalf("bit %d = %v,%v; want %v from the well-formed item", x, v, ok, want)
					}
				}
			}
		})
	}
}
