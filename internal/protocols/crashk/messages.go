package crashk

import (
	"math/bits"

	"repro/internal/bitarray"
	"repro/internal/intset"
	"repro/internal/sim"
)

// Wire messages of Algorithm 2. Sizes are accounted semantically: index
// sets cost two index-words per coalesced range, bit values cost one bit
// each, and every message carries a 64-bit header (type + phase).

const headerBits = 64

// indexBits returns the width of one index word for input length L.
func indexBits(L int) int {
	if L <= 1 {
		return 1
	}
	return bits.Len(uint(L - 1))
}

// Req1 is the stage-1 request: "send me the values of these bits" — the
// requester's still-unknown bits that phase `Phase`'s assignment places at
// the recipient. The recipient answers once it has finished its own
// stage-1 queries for that phase (Corollary 2.7 guarantees it then knows
// every requested bit).
type Req1 struct {
	Phase   int
	Indices intset.Set
	IdxBits int
}

var _ sim.Message = (*Req1)(nil)

// SizeBits implements sim.Message.
func (m *Req1) SizeBits() int { return headerBits + m.Indices.SizeBits(m.IdxBits) }

// Resp1 answers a Req1 with the values of the requested bits, in the index
// set's iteration order.
type Resp1 struct {
	Phase   int
	Indices intset.Set
	Values  *bitarray.Array
	IdxBits int
}

var _ sim.Message = (*Resp1)(nil)

// SizeBits implements sim.Message.
func (m *Resp1) SizeBits() int {
	return headerBits + m.Indices.SizeBits(m.IdxBits) + m.Values.Len()
}

// Req2Item asks about one silent peer Q: "did you hear Q in this phase?
// If so, send me the values of these bits."
type Req2Item struct {
	Q       sim.PeerID
	Indices intset.Set
}

// Req2 is the stage-2 request listing every peer the sender failed to hear
// from in stage 1 of the phase, with the bits it still needs from each.
// The recipient answers once it reaches stage 3 of the same phase.
type Req2 struct {
	Phase   int
	Items   []Req2Item
	IdxBits int
}

var _ sim.Message = (*Req2)(nil)

// SizeBits implements sim.Message.
func (m *Req2) SizeBits() int {
	s := headerBits
	for _, it := range m.Items {
		s += m.IdxBits + it.Indices.SizeBits(m.IdxBits)
	}
	return s
}

// Resp2 answers a Req2. Items aliases the request's items, in request
// order: a Req2's items are never written after it is sent, so the answer
// shares them instead of copying. Answered[i] reports whether item i is
// answered with values; an unanswered item is "me neither" (the responder
// did not hear Q either and cannot supply the bits). Values packs the
// answered items' values back to back, each in its index set's iteration
// order.
type Resp2 struct {
	Phase    int
	Items    []Req2Item
	Answered []bool
	Values   *bitarray.Array
	IdxBits  int
}

var _ sim.Message = (*Resp2)(nil)

// IsAnswered reports whether item i carries values; items past the end of
// Answered are unanswered.
func (m *Resp2) IsAnswered(i int) bool { return i < len(m.Answered) && m.Answered[i] }

// SizeBits implements sim.Message.
func (m *Resp2) SizeBits() int {
	s := headerBits
	for i, it := range m.Items {
		s += m.IdxBits + 1
		if m.IsAnswered(i) {
			s += it.Indices.SizeBits(m.IdxBits) + it.Indices.Len()
		}
	}
	return s
}

// Full carries the complete input array; every peer broadcasts one just
// before terminating, which is what makes one termination propagate to all
// (Claim 2).
type Full struct {
	Values *bitarray.Array
}

var _ sim.Message = (*Full)(nil)

// SizeBits implements sim.Message.
func (m *Full) SizeBits() int { return headerBits + m.Values.Len() }
