package source

import "repro/internal/bitarray"

// Call is one logical protocol query, the record every runtime keeps from
// the protocol's Query until the reply reaches the protocol. It survives
// retries (Attempt increments per issue) and parking behind the breaker.
// The reply always covers the full original index set: warm-served
// values are merged with fetched ones, so protocols never see partial
// replies.
type Call struct {
	Tag int
	// Indices is the protocol's full request (a private copy).
	Indices []int
	// Fetch is the subset that needs the source; it is Indices itself
	// when nothing was served warm.
	Fetch []int
	// Warm is the reply under construction, holding the warm-served
	// values, and Pos the positions of Fetch within Indices. Both are nil
	// when nothing was served warm.
	Warm *bitarray.Array
	Pos  []int
	// Ordinal and Attempt identify the attempt for the fault plan (see
	// Request); the runtime numbers Ordinal when it routes the call
	// through the source tier.
	Ordinal uint64
	Attempt int
}

// NewCall records the protocol query (tag, indices). persist, when
// non-nil, is a rejoined churn peer's tracker of source-verified bits:
// the indices it knows are served warm and drop out of Fetch, so only
// the remainder is charged to Q and sent to the source.
func NewCall(tag int, indices []int, persist *bitarray.Tracker) Call {
	idx := append([]int(nil), indices...)
	c := Call{Tag: tag, Indices: idx, Fetch: idx}
	if persist == nil {
		return c
	}
	warm := bitarray.New(len(idx))
	var pos []int
	for j, i := range idx {
		if v, ok := persist.Get(i); ok {
			warm.Set(j, v)
		} else {
			pos = append(pos, j)
		}
	}
	if len(pos) == len(idx) {
		return c // nothing persisted: plain query
	}
	c.Warm, c.Pos = warm, pos
	c.Fetch = make([]int, len(pos))
	for k, j := range pos {
		c.Fetch[k] = idx[j]
	}
	return c
}

// WarmBits is the number of requested bits served from warm state.
func (c *Call) WarmBits() int { return len(c.Indices) - len(c.Fetch) }

// FullyWarm reports that every requested bit was served warm: the call
// needs no source round trip and Warm is the whole reply.
func (c *Call) FullyWarm() bool { return c.Warm != nil && len(c.Fetch) == 0 }

// Merged returns the protocol's reply given rep, the source's answer to
// Fetch: rep itself, or the warm reply with rep's bits filled in.
func (c *Call) Merged(rep *bitarray.Array) *bitarray.Array {
	if c.Warm == nil {
		return rep
	}
	for k, j := range c.Pos {
		c.Warm.Set(j, rep.Get(k))
	}
	return c.Warm
}

// Answer is the paper's perfectly available oracle: the protocol's reply
// with every fetched bit read straight from input.
func (c *Call) Answer(input *bitarray.Array) *bitarray.Array {
	if c.FullyWarm() {
		return c.Warm
	}
	return c.Merged(read(input, c.Fetch))
}

// read returns input's bits at indices.
func read(input *bitarray.Array, indices []int) *bitarray.Array {
	bits := bitarray.New(len(indices))
	for j, idx := range indices {
		bits.Set(j, input.Get(idx))
	}
	return bits
}
