package source

import (
	"reflect"
	"testing"

	"repro/internal/bitarray"
)

// TestNewCallWarmSplit pins the shared warm split: known indices are
// served from the tracker and drop out of Fetch, the merged reply covers
// the full request in order, and the oracle answer agrees with it.
func TestNewCallWarmSplit(t *testing.T) {
	input := bitarray.New(8)
	for _, i := range []int{1, 2, 5, 6} {
		input.Set(i, true)
	}
	persist := bitarray.NewTracker(8)
	persist.LearnFromSource(2, true)
	persist.LearnFromSource(3, false)

	req := []int{3, 5, 2, 6}
	cold := NewCall(7, req, nil)
	req[0] = 0 // the call owns a private copy
	if !reflect.DeepEqual(cold.Indices, []int{3, 5, 2, 6}) || cold.Warm != nil || cold.WarmBits() != 0 {
		t.Fatalf("cold call: %+v", cold)
	}

	part := NewCall(7, []int{3, 5, 2, 6}, persist)
	if !reflect.DeepEqual(part.Fetch, []int{5, 6}) || part.WarmBits() != 2 || part.FullyWarm() {
		t.Fatalf("partial call: fetch=%v warm=%d", part.Fetch, part.WarmBits())
	}
	got := part.Answer(input)
	for j, idx := range part.Indices {
		if got.Get(j) != input.Get(idx) {
			t.Fatalf("reply bit %d (index %d) = %v, want %v", j, idx, got.Get(j), input.Get(idx))
		}
	}

	full := NewCall(7, []int{2, 3}, persist)
	if !full.FullyWarm() || len(full.Fetch) != 0 || full.Answer(input) != full.Warm {
		t.Fatalf("fully warm call: %+v", full)
	}
}

// TestClientWake pins the breaker-wake decision every runtime shares.
func TestClientWake(t *testing.T) {
	c := NewClient(1, Policy{BreakerThreshold: 1, BreakerCooldown: 5})
	if probe, at := c.Wake(0); !probe || at != 0 {
		t.Fatalf("closed: probe=%v at=%v, want a probe", probe, at)
	}
	c.OnFailure(2, KindOutage, 1, 1) // opens until 7
	if probe, at := c.Wake(3); probe || at != 7 {
		t.Fatalf("open, early: probe=%v at=%v, want re-arm at 7", probe, at)
	}
	if probe, _ := c.Wake(7); !probe || c.State() != StateHalfOpen {
		t.Fatalf("open, cooled down: probe=%v state=%v, want the half-open probe", probe, c.State())
	}
	if probe, at := c.Wake(8); probe || at != 0 {
		t.Fatalf("half-open: probe=%v at=%v, want wait for the probe", probe, at)
	}
}
