package netrt_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netrt"
	"repro/internal/protocols/naive"
	"repro/internal/source"
)

func tcpMirrors(t *testing.T, s string) *source.MirrorPlan {
	t.Helper()
	p, err := source.ParseMirrorPlan(s)
	if err != nil {
		t.Fatalf("ParseMirrorPlan(%q): %v", s, err)
	}
	return p
}

// TestMirrorHonestFleetOverTCP: QUERY frames draw QPROOF replies, every
// proof verifies against the pushed ROOT, and the download completes
// with Q = L and zero fallbacks.
func TestMirrorHonestFleetOverTCP(t *testing.T) {
	res, err := netrt.Run(netrt.Config{
		N: 4, T: 0, L: 256, MsgBits: 64, Seed: 31,
		NewPeer: naive.NewBatched(32),
		Mirrors: tcpMirrors(t, "mirrors=4,leaf=64,seed=5"),
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
	if res.Q != 256 {
		t.Errorf("Q = %d, want 256 (verified bits charge exactly once)", res.Q)
	}
	if res.MirrorHits == 0 || res.ProofFailures != 0 || res.FallbackQueries != 0 {
		t.Errorf("honest fleet counters: hits=%d pfails=%d fallbacks=%d",
			res.MirrorHits, res.ProofFailures, res.FallbackQueries)
	}
}

// TestMirrorByzantineMajorityOverTCP: 3 of 5 mirrors Byzantine with
// mixed behaviors. Clients reject every bad proof, fall back via
// QUERYSRC, and the download stays exact with Q = L. The lossy rows add
// frame drops and duplicates with a short query timeout: QUERY retries,
// QUERYSRC fallbacks and duplicated QPROOF/QREPLY frames must never
// charge, because Q is charged once per protocol Query call.
func TestMirrorByzantineMajorityOverTCP(t *testing.T) {
	type row struct {
		name   string
		faults *netrt.FaultPlan
		res    netrt.Resilience
	}
	rows := []row{{name: "clean"}}
	for seed := int64(1); seed <= 6; seed++ {
		rows = append(rows, row{
			name:   fmt.Sprintf("lossy/s%d", seed),
			faults: &netrt.FaultPlan{Seed: seed, Drop: 0.15, Dup: 0.2},
			res:    netrt.Resilience{QueryTimeout: 30 * time.Millisecond},
		})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			res, err := netrt.Run(netrt.Config{
				N: 4, T: 0, L: 256, MsgBits: 64, Seed: 33,
				NewPeer:    naive.NewBatched(32),
				Mirrors:    tcpMirrors(t, "mirrors=5,byz=3,behavior=mixed,leaf=32,seed=9"),
				Faults:     r.faults,
				Resilience: r.res,
				Timeout:    30 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("Byzantine mirrors broke correctness: %v", res)
			}
			if res.Q != 256 {
				t.Errorf("Q = %d under fallback, want 256", res.Q)
			}
			if res.ProofFailures == 0 || res.FallbackQueries == 0 {
				t.Errorf("Byzantine majority: pfails=%d fallbacks=%d, want both > 0",
					res.ProofFailures, res.FallbackQueries)
			}
		})
	}
}

// TestMirrorAllForgeOverTCP: every mirror forges proofs, so every query
// must fall back — zero hits, fallbacks equal to serve attempts, and the
// authoritative tier carries the whole Q = L download.
func TestMirrorAllForgeOverTCP(t *testing.T) {
	res, err := netrt.Run(netrt.Config{
		N: 3, T: 0, L: 192, MsgBits: 64, Seed: 35,
		NewPeer: naive.NewBatched(32),
		Mirrors: tcpMirrors(t, "mirrors=3,byz=3,behavior=forge,seed=4"),
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
	if res.MirrorHits != 0 {
		t.Errorf("all-forge fleet produced %d verified hits", res.MirrorHits)
	}
	if res.FallbackQueries == 0 || res.ProofFailures == 0 {
		t.Errorf("no fallbacks/proof failures: %d/%d", res.FallbackQueries, res.ProofFailures)
	}
	if res.Q != 192 {
		t.Errorf("Q = %d, want 192", res.Q)
	}
}

// TestMirrorWithSourceFaultsOverTCP layers mirrors over a flaky
// authoritative tier: fallback queries ride QUERYSRC into the
// QERR/retry/breaker machinery and the run still completes.
func TestMirrorWithSourceFaultsOverTCP(t *testing.T) {
	res, err := netrt.Run(netrt.Config{
		N: 3, T: 0, L: 128, MsgBits: 64, Seed: 37,
		NewPeer:      naive.NewBatched(32),
		Mirrors:      tcpMirrors(t, "mirrors=2,byz=2,behavior=wrong,seed=6"),
		SourceFaults: &source.FaultPlan{Seed: 3, FailRate: 0.3},
		SourcePolicy: fastSource,
		Timeout:      30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect: %v", res)
	}
	if res.FallbackQueries == 0 {
		t.Errorf("all-wrong fleet recorded no fallbacks")
	}
	if res.SourceFailures == 0 {
		t.Errorf("flaky authoritative tier recorded no failures")
	}
}

// TestMirrorFaultPlanOverTCP drops and duplicates frames under a
// Byzantine fleet: lost QPROOFs are recovered by query re-issue,
// duplicated ones are deduped, and the proof path still converges.
func TestMirrorFaultPlanOverTCP(t *testing.T) {
	res, err := netrt.Run(netrt.Config{
		N: 3, T: 0, L: 128, MsgBits: 64, Seed: 39,
		NewPeer: naive.NewBatched(16),
		Mirrors: tcpMirrors(t, "mirrors=4,byz=2,behavior=mixed,leaf=32,seed=7"),
		Faults: &netrt.FaultPlan{
			Seed: 11, Drop: 0.15, Dup: 0.1,
		},
		Resilience: netrt.Resilience{QueryTimeout: 150 * time.Millisecond},
		Timeout:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect under frame faults: %v", res)
	}
	if res.MirrorHits == 0 {
		t.Errorf("no verified mirror hits under a half-honest fleet")
	}
}
