package resilient

import (
	"sort"

	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
	"mobilecongest/internal/rsim"
	"mobilecongest/internal/sketch"
	"mobilecongest/internal/vote"
)

// Correction iterations. Both variants share the same skeleton per
// iteration:
//
//  a. the root draws fresh randomness and ECC-safe-broadcasts it (so the
//     adversary cannot precompute sketch collisions);
//  b. every node folds its local turnstile stream into per-tree sketches,
//     which are merge-convergecast to the root over every tree in parallel
//     under the RS scheduler;
//  c. the root extracts the mismatch list (majority across trees for sparse
//     recovery, support thresholds for ℓ0 samples);
//  d. the list is ECC-safe-broadcast and everyone rewrites its estimates.

// seedPlan is the fixed ECC plan for broadcasting the 8-byte iteration seed.
func (s *simulator) seedPlan() ECCPlan { return NewECCPlan(len(s.trees), 8) }

// corrPlan is the fixed ECC plan for broadcasting correction lists.
func (s *simulator) corrPlan() ECCPlan {
	maxCorr := 4*s.cfg.F + 4
	return NewECCPlan(len(s.trees), 2+correctionBytes*maxCorr)
}

// broadcastSeed has the root draw and disseminate the iteration seed.
func (s *simulator) broadcastSeed() (uint64, bool) {
	var msg []byte
	isRoot := s.isRoot()
	if isRoot {
		msg = congest.PutU64(nil, s.rt.Rand().Uint64())
	}
	got, ok := ECCSafeBroadcast(s.rt, s.trees, s.seedPlan(), msg, s.depth, s.cfg.Rep)
	if !ok {
		return 0, false
	}
	return congest.U64(got), true
}

func (s *simulator) isRoot() bool {
	for _, tv := range s.trees {
		if tv.Depth == 0 {
			return true
		}
	}
	return false
}

// sparseIteration runs one sparse-recovery correction (the Õ(D_TP+f)
// compiler of Section 1.2.2). Returns the correction list decoded from the
// root's broadcast.
func (s *simulator) sparseIteration(sent, est map[graph.NodeID]estimate, _ int) ([]correction, bool) {
	seed, seedOK := s.broadcastSeed()
	sparsity := 4*s.cfg.F + 2

	// Local sketches per tree (independent randomness per tree).
	k := len(s.trees)
	seeds := treeSeeds(seed, k)
	locals := make([][]byte, k)
	for j := 0; j < k; j++ {
		r := sketch.NewRecovery(seeds[j], sparsity)
		s.localStream(sent, est, r.Update)
		locals[j] = r.Encode()
	}
	rootAggs := rsim.ConvergecastUp(s.rt, s.trees, locals, wireMerge(sketch.EncodedSize(sparsity)), s.depth, s.cfg.Rep)

	// Root: decode each tree's aggregate and take the across-tree majority
	// of the canonical correction list.
	var corrMsg []byte
	if s.isRoot() && seedOK {
		votes := make(map[string]int)
		for j, agg := range rootAggs {
			if agg == nil {
				continue
			}
			r := sketch.DecodeRecovery(seeds[j], sparsity, agg)
			items, ok := r.Decode()
			if !ok {
				continue
			}
			votes[string(encodeCorrections(itemsToCorrections(items)))]++
		}
		best, bestCnt := vote.Winner(votes)
		if 2*bestCnt > k {
			corrMsg = []byte(best)
		} else {
			corrMsg = encodeCorrections(nil)
		}
	} else if s.isRoot() {
		corrMsg = encodeCorrections(nil)
	}
	got, ok := ECCSafeBroadcast(s.rt, s.trees, s.corrPlan(), corrMsg, s.depth, s.cfg.Rep)
	if !ok {
		return nil, false
	}
	return decodeCorrections(got), true
}

// itemsToCorrections converts recovered sketch items into corrections.
func itemsToCorrections(items []sketch.Item) []correction {
	var out []correction
	for _, it := range items {
		idx, payload := it.E.Unpack()
		switch {
		case it.Freq > 0:
			out = append(out, correction{idx: idx, data: payload, plus: true})
		case it.Freq < 0:
			out = append(out, correction{idx: idx, data: payload, plus: false})
		}
	}
	return out
}

// l0Iteration runs one iteration of Algorithm ImprovedMobileByzantineSim:
// t independent ℓ0 samples per tree, support counting at the root, and a
// thresholded dominating-mismatch broadcast (Eq. 8).
func (s *simulator) l0Iteration(sent, est map[graph.NodeID]estimate, j int) ([]correction, bool) {
	seed, seedOK := s.broadcastSeed()
	k := len(s.trees)
	t := s.cfg.Samplers

	seeds := samplerSeeds(seed, k, j, t)
	locals := make([][]byte, k)
	for ti := 0; ti < k; ti++ {
		buf := make([]byte, 0, t*sketch.EncodedL0Size)
		for h := 0; h < t; h++ {
			sm := sketch.NewL0Sampler(seeds[ti*t+h])
			s.localStream(sent, est, sm.Update)
			buf = append(buf, sm.Encode()...)
		}
		locals[ti] = buf
	}
	rootAggs := rsim.ConvergecastUp(s.rt, s.trees, locals, wireMerge(t*sketch.EncodedL0Size), s.depth, s.cfg.Rep)

	var corrMsg []byte
	if s.isRoot() && seedOK {
		corrMsg = encodeCorrections(s.rootSelectDominating(rootAggs, seeds, j))
	} else if s.isRoot() {
		corrMsg = encodeCorrections(nil)
	}
	got, ok := ECCSafeBroadcast(s.rt, s.trees, s.corrPlan(), corrMsg, s.depth, s.cfg.Rep)
	if !ok {
		return nil, false
	}
	return decodeCorrections(got), true
}

// rootSelectDominating implements the support threshold of Eq. (8): count
// how many (tree, sampler) pairs sampled each observed mismatch and keep
// those above Delta_j, capped to the broadcast capacity. seeds are the
// iteration's sampler seeds, tree-major.
func (s *simulator) rootSelectDominating(rootAggs [][]byte, seeds []uint64, j int) []correction {
	k := len(s.trees)
	t := s.cfg.Samplers
	type obs struct {
		e    sketch.Elem
		freq int64
	}
	support := make(map[obs]int)
	emptyTrees := 0
	for ti, agg := range rootAggs {
		if agg == nil {
			continue
		}
		anyNonEmpty := false
		for h := 0; h < t; h++ {
			sm := sketch.DecodeL0Sampler(seeds[ti*t+h], sliceAt(agg, h*sketch.EncodedL0Size, sketch.EncodedL0Size))
			if sm.Empty() {
				continue
			}
			anyNonEmpty = true
			if e, f, ok := sm.Query(); ok && (f == 1 || f == -1) {
				support[obs{e: e, freq: f}]++
			}
		}
		if !anyNonEmpty {
			emptyTrees++
		}
	}
	// If a majority of trees report a fully empty stream, there is nothing
	// to fix this iteration.
	if 2*emptyTrees > k {
		return nil
	}
	// Threshold Delta_j grows as mismatches shrink (Eq. 8); the constant is
	// calibrated so a clean tree's sampler hitting one of <= 4f/2^j
	// mismatches clears it while a minority of hijacked trees cannot.
	shift := j
	if shift > 16 {
		shift = 16
	}
	deltaJ := (k * t << shift) / (32 * maxI(1, s.cfg.F))
	if deltaJ < 2 {
		deltaJ = 2
	}
	var picked []obs
	for o, c := range support {
		if c >= deltaJ {
			picked = append(picked, o)
		}
	}
	sort.Slice(picked, func(a, b int) bool {
		if support[picked[a]] != support[picked[b]] {
			return support[picked[a]] > support[picked[b]]
		}
		if picked[a].e.Hi != picked[b].e.Hi {
			return picked[a].e.Hi < picked[b].e.Hi
		}
		if picked[a].e.Lo != picked[b].e.Lo {
			return picked[a].e.Lo < picked[b].e.Lo
		}
		// Two observations can share an element but differ in sign; without
		// this the comparator is not a total order over obs values and the
		// truncation below keeps an order-dependent subset.
		return picked[a].freq > picked[b].freq
	})
	maxCorr := 4*s.cfg.F + 4
	if len(picked) > maxCorr {
		picked = picked[:maxCorr]
	}
	var out []correction
	for _, o := range picked {
		idx, payload := o.e.Unpack()
		out = append(out, correction{idx: idx, data: payload, plus: o.freq > 0})
	}
	return out
}

func sliceAt(b []byte, off, n int) []byte {
	if off >= len(b) {
		return nil
	}
	end := off + n
	if end > len(b) {
		end = len(b)
	}
	return b[off:end]
}

// wireMerge is the convergecast merge for sketch images of the given size.
func wireMerge(size int) rsim.MergeFn {
	return func(_ int, a, b []byte) []byte { return sketch.MergeEncoded(a, b, size) }
}

// treeSeeds derives the k per-tree sketch seeds of one iteration.
func treeSeeds(seed uint64, k int) []uint64 {
	fold := sketch.NewXorFolder(seed)
	out := make([]uint64, k)
	for j := range out {
		out[j] = fold.Fold(uint64(j) + 1)
	}
	return out
}

// samplerSeeds derives the t sampler seeds of each of k trees for iteration
// iter, tree-major: tree ti's sampler h is out[ti*t+h].
func samplerSeeds(seed uint64, k, iter, t int) []uint64 {
	fold := sketch.NewXorFolder(seed)
	out := make([]uint64, 0, k*t)
	for ti := 0; ti < k; ti++ {
		for h := 0; h < t; h++ {
			out = append(out, fold.Fold(uint64(ti)+1, uint64(iter)+1, uint64(h)+1))
		}
	}
	return out
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
