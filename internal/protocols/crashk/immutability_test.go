package crashk_test

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/des"
	"repro/internal/protocols/crashk"
	"repro/internal/sim"
	"repro/internal/wire"
)

// sentFrames marshals every message at its send event, keeping the
// message and the bytes it encoded to at that moment.
type sentFrames struct {
	t      *testing.T
	msgs   []sim.Message
	frames [][]byte
	resp2  int
}

func (s *sentFrames) OnEvent(ev sim.ObservedEvent) {
	if ev.Kind != "send" {
		return
	}
	raw, err := wire.Marshal(ev.Msg)
	if err != nil {
		s.t.Fatalf("marshal %T at send: %v", ev.Msg, err)
	}
	if _, ok := ev.Msg.(*crashk.Resp2); ok {
		s.resp2++
	}
	s.msgs = append(s.msgs, ev.Msg)
	s.frames = append(s.frames, raw)
}

// TestPayloadsImmutableAfterSend: a Req2's items are shared by the
// broadcast, the sender's own early-exit bookkeeping and every Resp2
// that answers it, so no peer may write a payload after sending it.
// Every message must re-marshal, after the run, to the bytes it had when
// it was sent — on the serial engine and the speculative scheduler.
func TestPayloadsImmutableAfterSend(t *testing.T) {
	const n, tf, L = 12, 5, 1024
	faulty := adversary.SpreadFaulty(n, tf)
	for _, variant := range []struct {
		name    string
		newPeer func(sim.PeerID) sim.Peer
	}{{"base", crashk.New}, {"fast", crashk.NewFast}} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", variant.name, workers), func(t *testing.T) {
				rec := &sentFrames{t: t}
				spec := &sim.Spec{
					Config:  sim.Config{N: n, T: tf, L: L, MsgBits: 64, Seed: 21},
					NewPeer: variant.newPeer,
					Delays:  adversary.NewRandomUnit(21 + 1000003),
					Faults: sim.FaultSpec{
						Model: sim.FaultCrash, Faulty: faulty,
						Crash: adversary.NewCrashRandom(22, faulty, 10*n),
					},
					Observer: rec,
					Workers:  workers,
				}
				res, err := des.New().Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("incorrect: %v", res.Failures)
				}
				if rec.resp2 == 0 {
					t.Fatal("no stage-2 answers sent; the run does not exercise aliasing")
				}
				for i, m := range rec.msgs {
					raw, err := wire.Marshal(m)
					if err != nil {
						t.Fatal(err)
					}
					if string(raw) != string(rec.frames[i]) {
						t.Fatalf("message %d (%T) changed after it was sent", i, m)
					}
				}
			})
		}
	}
}
