package resilient

import (
	"sort"

	"mobilecongest/internal/congest"
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

// TreeNode is one node's side of the tree subprotocols in one run: its
// runtime, its views of the packing's trees, the packing's depth bound
// (rsim.MaxDepth), the per-slot repetition t_RS, and the buffers the node
// keeps across runs. Every node of a run calls its methods in lock-step.
type TreeNode struct {
	RT    congest.Runtime
	Trees []rsim.TreeView
	Depth int
	Rep   int
	*Scratch
}

// Scratch is the buffers a TreeNode reuses: its rsim frames, its per-tree
// correction sketches and the root's decode of one tree's aggregate. A
// compiler keeps it in its node scratch (congest.NodeScratch), so the run's
// context keeps it across runs; every use rewrites it from empty.
type Scratch struct {
	Out       rsim.Outbox
	sketches  sketch.RecoveryImages
	rec, work sketch.Recovery
	fold      congest.SeededRand // the seed fold's fingerprint generator
}

// broadcastSeed has the root draw a correction round's seed and
// ECC-safe-broadcast it. A node whose broadcast failed gets seed 0.
func (n *TreeNode) broadcastSeed() (uint64, bool) {
	var msg []byte
	if rsim.IsRoot(n.Trees) {
		msg = congest.PutU64(nil, n.RT.Rand().Uint64())
	}
	got, ok := ECCSafeBroadcast(n.RT, &n.Out, n.Trees, NewECCPlan(len(n.Trees), 8), msg, n.Depth, n.Rep)
	return congest.U64(got), ok
}

// SparseCorrect runs one sparse-recovery correction round, the Õ(D_TP+f)
// correction of Section 1.2.2 and Lemma 4.2's d-message-correction:
//
//  1. the root draws a seed and ECC-safe-broadcasts it;
//  2. every node folds stream, its local turnstile stream, into one
//     s-sparse recovery sketch per tree, and the sketches are
//     merge-convergecast to the root;
//  3. the root decodes each tree's aggregate, encodes the recovered items
//     with encode and takes the majority encoding across trees; without a
//     seed or a majority it sends encode(nil);
//  4. the root's list is ECC-safe-broadcast, padded to listBytes.
//
// It returns the broadcast list and whether this node decoded it.
func (n *TreeNode) SparseCorrect(sparsity int, stream func(upd func(e sketch.Elem, f int64)), encode func(items []sketch.Item) []byte, listBytes int) ([]byte, bool) {
	seed, seedOK := n.broadcastSeed()
	// Each tree's sketch has its own seed, and each tree owns its image,
	// so the convergecast folds child sketches into it in place.
	k := len(n.Trees)
	seeds := TreeSeeds(n.RT.Memo(), &n.fold, seed, k)
	locals := n.sketches.Build(seeds, sparsity, stream)
	rootAggs := rsim.ConvergecastUp(n.RT, &n.Out, n.Trees, locals, wireMerge(sketch.EncodedSize(sparsity)), n.Depth, n.Rep)

	var list []byte
	if rsim.IsRoot(n.Trees) {
		list = encode(nil)
		votes := make(map[string]int)
		for j, agg := range rootAggs {
			if agg == nil || !seedOK {
				continue
			}
			n.rec.Load(seeds[j], sparsity, agg)
			if items, ok := n.rec.DecodeWith(&n.work); ok {
				votes[string(encode(items))]++
			}
		}
		if best, cnt := vote.Winner(votes); 2*cnt > k {
			list = []byte(best)
		}
	}
	return ECCSafeBroadcast(n.RT, &n.Out, n.Trees, NewECCPlan(k, listBytes), list, n.Depth, n.Rep)
}

// listBytes is the size of a broadcast correction list: its count and at
// most 4f+4 entries.
func (s *simulator) listBytes() int { return 2 + correctionBytes*(4*s.cfg.F+4) }

// sparseIteration runs one sparse-recovery correction with sparsity 4f+2
// and returns the correction list decoded from the root's broadcast.
func (s *simulator) sparseIteration() ([]correction, bool) {
	s.sketches.Reserve(2 * s.RT.Degree())
	got, ok := s.SparseCorrect(4*s.cfg.F+2, s.localStream, func(items []sketch.Item) []byte {
		return encodeCorrections(itemsToCorrections(items))
	}, s.listBytes())
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
func (s *simulator) l0Iteration(j int) ([]correction, bool) {
	seed, seedOK := s.broadcastSeed()
	k := len(s.Trees)
	t := s.cfg.Samplers

	seeds := samplerSeeds(s.RT.Memo(), &s.fold, seed, k, j, t)
	// Tree ti's image holds its t samplers back to back; each tree owns
	// its image, so the convergecast folds child sketches into it in place.
	s.sc.samplers.Reserve(2 * s.RT.Degree())
	locals := s.sc.samplers.Build(seeds, t, s.localStream)
	rootAggs := rsim.ConvergecastUp(s.RT, &s.Out, s.Trees, locals, wireMerge(t*sketch.EncodedL0Size), s.Depth, s.Rep)

	var corrMsg []byte
	if rsim.IsRoot(s.Trees) {
		var picked []correction
		if seedOK {
			picked = s.rootSelectDominating(rootAggs, seeds, j)
		}
		corrMsg = encodeCorrections(picked)
	}
	got, ok := ECCSafeBroadcast(s.RT, &s.Out, s.Trees, NewECCPlan(k, s.listBytes()), corrMsg, s.Depth, s.Rep)
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
	k := len(s.Trees)
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
// It folds in place, so every locals image it is handed must be owned by its
// tree alone.
func wireMerge(size int) rsim.MergeFn {
	return func(_ int, a, b []byte) []byte { return sketch.MergeEncoded(a, b, size) }
}

// Every node derives the same seeds from the same broadcast seed, and
// seeding the fold's fingerprint source costs far more than the few words
// drawn from it, so both derivations go through the run's memo. The node
// that derives an entry draws the fingerprint from fold, the generator its
// Scratch keeps, so no derivation builds a rand source.
var (
	treeSeedTable    = congest.NewMemoTable[uint64, []uint64]()
	samplerSeedTable = congest.NewMemoTable[uint64, []uint64]()
)

// TreeSeeds derives the k per-tree sketch seeds of one correction
// iteration from its broadcast seed, through the run's memo m, restarting
// the calling node's generator g when it derives the entry. The result is
// shared read-only with every node of the run that derives the same seeds.
func TreeSeeds(m *congest.Memo, g *congest.SeededRand, seed uint64, k int) []uint64 {
	return treeSeedTable.Derive(m, []uint64{seed, uint64(k)}, func() []uint64 {
		fold := sketch.NewXorFolder(g.Restart(int64(seed)))
		out := make([]uint64, k)
		for j := range out {
			out[j] = fold.Fold(uint64(j) + 1)
		}
		return out
	})
}

// samplerSeeds derives the t sampler seeds of each of k trees for iteration
// iter, tree-major: tree ti's sampler h is out[ti*t+h]. Like TreeSeeds, it
// derives through the run's memo m with the node's generator g, and the
// result is read-only.
func samplerSeeds(m *congest.Memo, g *congest.SeededRand, seed uint64, k, iter, t int) []uint64 {
	return samplerSeedTable.Derive(m, []uint64{seed, uint64(k), uint64(iter), uint64(t)}, func() []uint64 {
		fold := sketch.NewXorFolder(g.Restart(int64(seed)))
		out := make([]uint64, 0, k*t)
		for ti := 0; ti < k; ti++ {
			for h := 0; h < t; h++ {
				out = append(out, fold.Fold(uint64(ti)+1, uint64(iter)+1, uint64(h)+1))
			}
		}
		return out
	})
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
