package congest

// Packed round slabs: instead of carrying each slot's payload as an
// independently heap-allocated []byte behind a slab of 24-byte slice
// headers, a round buffer stores one 8-byte msgRef per slot — a packed
// (chunk, offset, length) view into a per-round byte arena — and the payload
// bytes themselves live contiguously in the arena. Collection copies each
// outbox payload into the arena, so the sender may reuse its buffer once the
// exchange returns. A payload the sender lent (PortRuntime.LendOut) is not
// copied: the arena keeps a capacity-clipped reference to the sender's bytes
// in its spill list, which the lending contract keeps unchanged until every
// receiver has moved on. Every downstream reader — the adversary's
// RoundTraffic Get path, the delivery gather, the observers — resolves the
// view back to a []byte subslice without allocating. The arena is truncated,
// not freed, each round, so a warm run's rounds allocate nothing.
//
// Chunks exist for the shard engine: each shard appends into its own chunk
// during the parallel collection phase, so writers never contend; the phase
// barrier publishes every chunk to every reader. Single-shard runs use chunk
// 0 only.

// msgRef is the packed per-slot payload reference. The zero value means the
// slot is silent (no message). Layout, high to low:
//
//	bit  63     present — set on every non-zero ref, so ref != 0 ⇔ occupied
//	bit  62     spill — payload lives in the arena's spill list, not a chunk
//	bits 48..61 chunk index (14 bits)
//	bits 27..47 payload length in bytes (21 bits, ≤ 2 MiB inline)
//	bits 0..26  byte offset into the chunk (27 bits), or the spill index
//
// Oversized payloads and chunk-offset overflows take the spill path: the
// payload is cloned into the chunk's spill list and the offset field holds
// the spill index (the length field is unused there — spilled payloads carry
// their own length). Lent payloads take the same path without the clone.
// The budget check converts lengths to bits (8·len).
type msgRef uint64

const (
	refPresent    msgRef = 1 << 63
	refSpill      msgRef = 1 << 62
	refChunkBits         = 14
	refLenBits           = 21
	refOffBits           = 27
	refChunkShift        = refOffBits + refLenBits
	refLenShift          = refOffBits
	refChunkMask         = 1<<refChunkBits - 1
	refMaxLen            = 1<<refLenBits - 1
	refMaxOff            = 1<<refOffBits - 1
)

// packRef builds an inline (non-spill) reference. Callers guarantee the
// ranges; see msgArena.put for the spill fallback.
func packRef(chunk, off, length int) msgRef {
	return refPresent | msgRef(chunk)<<refChunkShift | msgRef(length)<<refLenShift | msgRef(off)
}

func (r msgRef) chunk() int  { return int(r>>refChunkShift) & refChunkMask }
func (r msgRef) length() int { return int(r>>refLenShift) & refMaxLen }
func (r msgRef) offset() int { return int(r & refMaxOff) }

// emptyMsg is the canonical present-but-empty payload: Get must distinguish
// a silent slot (nil) from a delivered zero-byte message (non-nil, empty),
// and resolving every empty ref to one shared value keeps that distinction
// allocation-free.
var emptyMsg = Msg{}

// msgArena owns one round's payload bytes: one append-only chunk per
// concurrent writer plus a per-chunk spill list for payloads the packed
// encoding cannot address inline. reset truncates in place, keeping the
// grown capacity, so arenas reach a sticky high-water mark after warmup and
// later rounds append without allocating.
type msgArena struct {
	chunks [][]byte
	spill  [][]Msg
	lent   []bool // per chunk: lend kept a sender's buffer since takeLent
}

// ensure grows the writer count to at least n chunks.
func (a *msgArena) ensure(n int) {
	for len(a.chunks) < n {
		a.chunks = append(a.chunks, nil)
	}
	for len(a.spill) < n {
		a.spill = append(a.spill, nil)
	}
	for len(a.lent) < n {
		a.lent = append(a.lent, false)
	}
}

// reserve pre-grows chunk 0 to the given byte capacity — the slots×budget
// sizing hint applied when a run declares a bandwidth budget. Only useful
// between rounds (the chunk must be empty).
func (a *msgArena) reserve(bytes int) {
	if len(a.chunks[0]) == 0 && cap(a.chunks[0]) < bytes {
		a.chunks[0] = make([]byte, 0, bytes)
	}
}

// reset truncates every chunk and releases every spilled payload, keeping
// capacities for the next round.
func (a *msgArena) reset() {
	for k := range a.chunks {
		a.chunks[k] = a.chunks[k][:0]
	}
	a.releaseSpill()
}

// releaseSpill drops every spilled payload reference — the clones and the
// lent senders' buffers — keeping the lists' capacities.
func (a *msgArena) releaseSpill() {
	for k := range a.spill {
		sp := a.spill[k]
		clear(sp)
		a.spill[k] = sp[:0]
	}
}

// takeLent reports whether lend kept a sender's buffer in any chunk since
// the last call, and forgets it. The record outlives reset, so it covers a
// whole run.
func (a *msgArena) takeLent() bool {
	lent := false
	for k := range a.lent {
		lent = lent || a.lent[k]
		a.lent[k] = false
	}
	return lent
}

// put copies m's bytes into chunk k and returns the packed reference.
// Distinct k values may be written concurrently (the shard engine's
// collection phase); a single k is single-writer.
func (a *msgArena) put(k int, m Msg) msgRef {
	if len(m) == 0 {
		return refPresent | msgRef(k)<<refChunkShift
	}
	c := a.chunks[k]
	if len(m) > refMaxLen || len(c) > refMaxOff {
		idx := len(a.spill[k])
		a.spill[k] = append(a.spill[k], m.Clone())
		return refPresent | refSpill | msgRef(k)<<refChunkShift | msgRef(idx)
	}
	off := len(c)
	a.chunks[k] = append(c, m...)
	return packRef(k, off, len(m))
}

// lend records m in chunk k without copying it: the spill list keeps
// m[:len(m):len(m)], whose clipped capacity stops a receiver's append from
// reaching the sender's buffer. A zero-length payload and a spill-index
// overflow take put instead. The same concurrency rule as put applies.
func (a *msgArena) lend(k int, m Msg) msgRef {
	idx := len(a.spill[k])
	if len(m) == 0 || idx > refMaxOff {
		return a.put(k, m)
	}
	a.spill[k] = append(a.spill[k], m[:len(m):len(m)])
	a.lent[k] = true
	return refPresent | refSpill | msgRef(k)<<refChunkShift | msgRef(idx)
}

// get resolves a reference to its payload bytes: nil for a silent slot, a
// shared canonical empty Msg for a present zero-byte one, otherwise a
// capacity-clipped subslice of the owning chunk (or the spilled clone or
// lent payload).
// Growing a chunk with later puts is safe for already-resolved slices —
// append copies the prefix, and the superseded backing array stays valid and
// is never rewritten.
func (a *msgArena) get(r msgRef) Msg {
	if r&refPresent == 0 {
		return nil
	}
	if r&refSpill != 0 {
		return a.spill[r.chunk()][r.offset()]
	}
	n := r.length()
	if n == 0 {
		return emptyMsg
	}
	off := r.offset()
	return Msg(a.chunks[r.chunk()][off : off+n : off+n])
}
