package wire

import (
	"math/rand"
	"testing"

	"repro/internal/bitarray"
	"repro/internal/intset"
	"repro/internal/protocols/crash1"
	"repro/internal/protocols/crashk"
	"repro/internal/sim"
)

// TestMarshalAppendAllocFree pins the encode path's allocation contract:
// appending into a buffer with sufficient capacity must not allocate at
// all. The TCP runtime relies on this to reuse one scratch buffer per
// connection, and bitarray.AppendTo exists precisely to keep this path
// free of intermediate []byte materialization.
func TestMarshalAppendAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	msgs := []sim.Message{
		&crash1.Push{
			Phase:   1,
			Indices: intset.FromRange(100, 1124),
			Values:  bitarray.Random(rng, 1024),
			IdxBits: 11,
		},
		// One me-neither item and one answered item read straight from
		// the packed values.
		&crashk.Resp2{Phase: 2, IdxBits: 12, Items: []crashk.Req2Item{
			{Q: 3, Indices: intset.FromRange(0, 64)},
			{Q: 7, Indices: intset.FromSorted([]int{70, 71, 72, 300, 301})},
		}, Answered: []bool{false, true}, Values: bitarray.Random(rng, 5)},
	}
	buf := make([]byte, 0, 4096)
	for _, msg := range msgs {
		allocs := testing.AllocsPerRun(100, func() {
			out, err := MarshalAppend(buf, msg)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) == 0 {
				t.Fatal("empty encoding")
			}
		})
		if allocs != 0 {
			t.Fatalf("%T: MarshalAppend into presized buffer allocated %.1f times per op, want 0", msg, allocs)
		}
	}
}

// TestMarshalAllocBudget bounds the convenience path: Marshal may allocate
// only for the returned buffer (append growth), not per-field.
func TestMarshalAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	msg := &crash1.Push{
		Phase:   1,
		Indices: intset.FromRange(0, 512),
		Values:  bitarray.Random(rng, 512),
		IdxBits: 10,
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Marshal(msg); err != nil {
			t.Fatal(err)
		}
	})
	// Appending ~600 bytes from nil grows the slice a handful of times;
	// anything beyond that means a field started materializing copies.
	if allocs > 6 {
		t.Fatalf("Marshal allocated %.1f times per op, budget 6", allocs)
	}
}
