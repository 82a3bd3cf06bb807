package sketch

// Recovery is an s-sparse recovery sketch: if the stream's support has at
// most s non-zero-frequency elements, Decode returns all of them exactly
// (w.h.p.). It hashes elements into rows x width one-sparse buckets and
// decodes by peeling. This powers the Õ(D_TP + f) variant of the byzantine
// compiler (Section 1.2.2) and the message-correction procedure of
// Lemma 4.2, both of which need the *full* mismatch list at the root.
type Recovery struct {
	seed    uint64
	rows    int
	width   int
	buckets []OneSparse // row-major: bucket (i, j) at i*width+j
	rowKey  []uint64
}

// NewRecovery creates a sketch for supports up to s elements. It uses
// 2s-wide rows and a logarithmic number of rows, the standard parameters
// under which peeling succeeds w.h.p.
func NewRecovery(seed uint64, s int) *Recovery {
	r := new(Recovery)
	r.reshape(s)
	r.Reseed(seed)
	return r
}

// reshape gives r the geometry of sparsity s, reusing its storage when the
// geometry is unchanged. Its buckets and row keys are left for Reseed.
func (r *Recovery) reshape(s int) {
	if s < 1 {
		s = 1
	}
	r.rows, r.width = 6, 2*s
	if len(r.buckets) != r.rows*r.width {
		r.buckets = make([]OneSparse, r.rows*r.width)
	}
	if len(r.rowKey) != r.rows {
		r.rowKey = make([]uint64, r.rows)
	}
}

// Reseed empties r and rekeys it with a new seed, keeping its sparsity and
// storage: afterwards r is identical to NewRecovery(seed, r.S()).
func (r *Recovery) Reseed(seed uint64) {
	r.seed = seed
	for b := range r.buckets {
		r.buckets[b] = oneSparse(seed ^ (uint64(b+1) * 0x9e3779b97f4a7c15))
	}
	for i := range r.rowKey {
		r.rowKey[i] = mix64(seed ^ (uint64(i+1) * 0xc2b2ae3d27d4eb4f))
	}
}

// S returns the sparsity parameter (width/2).
func (r *Recovery) S() int { return r.width / 2 }

func (r *Recovery) bucketOf(row int, e Elem) int {
	return int(prf64(r.rowKey[row], e) % uint64(r.width))
}

// Update adds element e with frequency freq.
func (r *Recovery) Update(e Elem, freq int64) {
	u := prepare(e, freq)
	r.apply(&u)
}

// apply adds the prepared update u to its bucket in every row.
func (r *Recovery) apply(u *prepared) {
	for i := 0; i < r.rows; i++ {
		r.buckets[i*r.width+r.bucketOf(i, u.e)].apply(u)
	}
}

// Merge folds another sketch (same seed and sparsity) into r.
func (r *Recovery) Merge(other *Recovery) {
	for b := range r.buckets {
		r.buckets[b].Merge(&other.buckets[b])
	}
}

// Item is one recovered (element, net frequency) pair.
type Item struct {
	E    Elem
	Freq int64
}

// Decode peels the sketch and returns the recovered support. ok=false when
// peeling stalls before emptying the sketch (support larger than s, or a
// corrupted sketch).
func (r *Recovery) Decode() (items []Item, ok bool) {
	return r.DecodeWith(new(Recovery))
}

// DecodeWith is Decode peeling a copy of r made in work's storage, which
// it overwrites; r itself is left unchanged. A caller that decodes many
// sketches keeps one work value (the zero value will do) for all of them.
func (r *Recovery) DecodeWith(work *Recovery) (items []Item, ok bool) {
	work.reshape(r.S())
	work.Reseed(r.seed)
	work.Merge(r)
	for iter := 0; iter <= 4*r.width*r.rows; iter++ {
		progressed := false
		for b := range work.buckets {
			if work.buckets[b].IsEmpty() {
				continue
			}
			e, f, decOK := work.buckets[b].Decode()
			if !decOK {
				continue
			}
			items = append(items, Item{E: e, Freq: f})
			work.Update(e, -f)
			progressed = true
			break
		}
		if !progressed {
			break
		}
	}
	return items, work.nonEmpty() == 0
}

// ResidualBuckets returns how many buckets stay non-empty after peeling —
// diagnostic for distinguishing "support slightly over s" from structural
// aggregation loss.
func (r *Recovery) ResidualBuckets() int {
	work := NewRecovery(r.seed, r.S())
	work.Merge(r)
	if items, _ := work.Decode(); items != nil {
		for _, it := range items {
			work.Update(it.E, -it.Freq)
		}
	}
	return work.nonEmpty()
}

// nonEmpty counts the buckets not consistent with an empty support.
func (r *Recovery) nonEmpty() int {
	n := 0
	for b := range r.buckets {
		if !r.buckets[b].IsEmpty() {
			n++
		}
	}
	return n
}

// Encode serializes the sketch: rows*width one-sparse triples of 32 bytes.
func (r *Recovery) Encode() []byte {
	return r.AppendTo(make([]byte, 0, 32*len(r.buckets)))
}

// AppendTo appends the Encode image to dst and returns the extended slice.
func (r *Recovery) AppendTo(dst []byte) []byte {
	for b := range r.buckets {
		dst = r.buckets[b].appendTo(dst)
	}
	return dst
}

// RecoveryImages encodes one s-sparse recovery sketch per seed, back to
// back in one buffer, through a single Recovery reseeded per seed. A node
// keeps one across calls, so its per-tree sketches cost no allocation after
// the first call.
type RecoveryImages struct {
	rec    *Recovery
	stream preparedStream
	buf    []byte
	images [][]byte
}

// Reserve makes room for a stream of n updates, so that Build collects one
// of up to n updates without growing its storage.
func (ri *RecoveryImages) Reserve(n int) { ri.stream.reserve(n) }

// Build returns the encoded image of each seed's sketch after stream has
// fed it its updates. It calls stream once and keeps each update with its
// seed-free residues; each seed's sketch then adds only the update's
// buckets and fingerprint tags. The sketch is linear, so the order in
// which stream feeds the updates does not change any image. The images
// stay valid until the next Build. Each is capped at its own length, so
// folding into one with MergeEncoded never touches another, and the caller
// owns each exclusively.
func (ri *RecoveryImages) Build(seeds []uint64, s int, stream func(update func(e Elem, freq int64))) [][]byte {
	size := EncodedSize(s)
	if ri.rec == nil || ri.rec.S() != max(s, 1) {
		ri.rec = NewRecovery(0, s)
	}
	ri.stream.collect(stream)
	ri.buf = growImages(ri.buf, len(seeds)*size)
	ri.images = ri.images[:0]
	for _, seed := range seeds {
		ri.rec.Reseed(seed)
		for i := range ri.stream.list {
			ri.rec.apply(&ri.stream.list[i])
		}
		ri.buf = ri.rec.AppendTo(ri.buf)
		ri.images = append(ri.images, ri.buf[len(ri.buf)-size:len(ri.buf):len(ri.buf)])
	}
	return ri.images
}

// growImages returns buf emptied, with room for n bytes.
func growImages(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, 0, n)
	}
	return buf[:0]
}

// EncodedSize returns the wire size for sparsity s.
func EncodedSize(s int) int {
	if s < 1 {
		s = 1
	}
	return 32 * 6 * 2 * s
}

// DecodeRecovery parses a wire image produced with the same seed and
// sparsity. Corrupted bytes yield a garbage (but well-formed) sketch.
func DecodeRecovery(seed uint64, s int, data []byte) *Recovery {
	r := new(Recovery)
	r.Load(seed, s, data)
	return r
}

// Load makes r the sketch DecodeRecovery(seed, s, data) returns, reusing
// r's storage; the zero Recovery is ready to load.
func (r *Recovery) Load(seed uint64, s int, data []byte) {
	r.reshape(s)
	r.Reseed(seed)
	for b := range r.buckets {
		r.buckets[b].load(data, 32*b)
	}
}
