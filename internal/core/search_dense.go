package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"siot/internal/task"
)

// This file is the frozen-epoch trust search every sweep, served query, and
// experiment runs: the BFS of transit.go's map-based Find, rewritten over
// dense generation-stamped arrays indexed by agent slot and fed by a
// TrustView (and optionally an EdgeMemo), for any TrustModel. One entry
// point, FindViewModelInto, picks between two searches from the model's
// spec: the single-path search (findModelView) and the per-characteristic
// search (findAggressiveView). The live-store Find remains the reference
// implementation — the equivalence tests in sim assert byte-identical
// SearchResults between the two on randomized populations.

// frontSet is one BFS frontier as a dense value array plus the ordered ID
// list that replaces sorting map keys: IDs are appended on first discovery
// and sorted once per depth, so iteration order matches the live search's
// appendSortedIDs order exactly.
type frontSet struct {
	stamp []uint32
	val   []float64
	ids   []AgentID
	cur   uint32
}

func (f *frontSet) ensure(n int) {
	if len(f.stamp) < n {
		f.stamp = append(f.stamp, make([]uint32, n-len(f.stamp))...)
		f.val = append(f.val, make([]float64, n-len(f.val))...)
	}
}

func (f *frontSet) reset(stamp uint32) {
	f.cur = stamp
	f.ids = f.ids[:0]
}

// add inserts or max-merges (v, val), mirroring the map path's
// "if cur, seen := m[v]; !seen || val > cur" update.
func (f *frontSet) add(v AgentID, val float64) {
	if f.stamp[v] != f.cur {
		f.stamp[v] = f.cur
		f.val[v] = val
		f.ids = append(f.ids, v)
	} else if val > f.val[v] {
		f.val[v] = val
	}
}

// denseState is the pooled scratch state of one FindViewModelInto call.
// Membership of every set (inquired, best, frontiers, per-characteristic
// bests) is encoded as a generation stamp, so "clearing" a set is a counter
// increment instead of an O(n) wipe, and a warmed pool entry serves any
// number of searches without allocating.
type denseState struct {
	stamp    uint32
	inqStamp []uint32
	inqCur   uint32
	inqCount int

	bestStamp []uint32
	bestVal   []float64
	bestCur   uint32
	candIDs   []AgentID

	fr [2]frontSet

	// Aggressive policy: one best-value layer per task characteristic, plus
	// the discovery list of characteristic 0 (a node unreached by the first
	// characteristic can never satisfy the full-coverage rule of eq. 12).
	charStamp [][]uint32
	charVal   [][]float64
	charCur   []uint32
	char0IDs  []AgentID

	n int
}

var densePool = sync.Pool{New: func() any { return &denseState{} }}

// stampHeadroom bounds the stamps one search can consume: two
// singleton sets plus, per characteristic layer, a best set and one frontier
// set per depth. 1<<16 covers any plausible depth × alphabet product.
const stampHeadroom = 1 << 16

// acquireDense returns a pooled state sized for n agent slots with enough
// stamp headroom that the counter cannot wrap mid-search.
func acquireDense(n int) *denseState {
	st := densePool.Get().(*denseState)
	if st.n < n {
		st.inqStamp = append(st.inqStamp, make([]uint32, n-st.n)...)
		st.bestStamp = append(st.bestStamp, make([]uint32, n-st.n)...)
		st.bestVal = append(st.bestVal, make([]float64, n-st.n)...)
		st.fr[0].ensure(n)
		st.fr[1].ensure(n)
		for i := range st.charStamp {
			st.charStamp[i] = append(st.charStamp[i], make([]uint32, n-st.n)...)
			st.charVal[i] = append(st.charVal[i], make([]float64, n-st.n)...)
		}
		st.n = n
	}
	if st.stamp > math.MaxUint32-stampHeadroom {
		clear(st.inqStamp)
		clear(st.bestStamp)
		clear(st.fr[0].stamp)
		clear(st.fr[1].stamp)
		for i := range st.charStamp {
			clear(st.charStamp[i])
		}
		st.stamp = 0
	}
	return st
}

// nextStamp mints a fresh set identity (never 0: zeroed arrays mean "in no
// set").
func (st *denseState) nextStamp() uint32 {
	st.stamp++
	return st.stamp
}

// ensureChars grows the per-characteristic layers to hold k characteristics.
func (st *denseState) ensureChars(k int) {
	for len(st.charStamp) < k {
		st.charStamp = append(st.charStamp, make([]uint32, st.n))
		st.charVal = append(st.charVal, make([]float64, st.n))
	}
	if len(st.charCur) < k {
		st.charCur = append(st.charCur, make([]uint32, k-len(st.charCur))...)
	}
}

// markInquired counts v once per search.
func (st *denseState) markInquired(v AgentID) {
	if st.inqStamp[v] != st.inqCur {
		st.inqStamp[v] = st.inqCur
		st.inqCount++
	}
}

// FindViewModelInto is Find over a frozen TrustView for any TrustModel,
// writing into res and reusing res.Candidates' capacity so a caller that
// recycles results allocates nothing after warmup. Search semantics and
// results are bit-identical to the live-store Find for the policy
// adapters, reading captured CSR memory instead of live locked stores.
//
// The model's spec picks the search: PerCharacteristic models run the
// per-characteristic propagation over CharTW hops, every other model the
// single-path search over its hop values. memo may be nil, in which case
// hop values are computed from the view's record arena per hop (lock-free
// but unmemoized); after EdgeMemo.RequireModel every hop is a single array
// lookup. An EpochTrainable model must be trained through RequireModel
// first.
//
// FindViewModelInto is safe for concurrent use: the view and memo are
// read-only and each call draws its scratch state from a pool.
func (s *Searcher) FindViewModelInto(res *SearchResult, view *TrustView, memo *EdgeMemo, trustor AgentID, t task.Task, m TrustModel) {
	st := acquireDense(view.NumAgents())
	if spec := m.Spec(); spec.PerCharacteristic {
		s.findAggressiveView(res, view, memo, trustor, t, st)
	} else {
		s.findModelView(res, view, memo, trustor, t, m, spec, st)
	}
	densePool.Put(st)
}

// modelHopSource resolves, once per search, how hops are evaluated for a
// model over a view: the memoized per-edge table when RequireModel built
// one for this exact task, else the trained scorer for EpochTrainable
// models, else the model's evidence-local HopTW.
type modelHopSource struct {
	vals   []float64
	scorer EdgeScorer
	model  TrustModel
	ctx    HopContext
}

func resolveModelHops(view *TrustView, memo *EdgeMemo, m TrustModel, t task.Task, norm Normalizer) modelHopSource {
	src := modelHopSource{model: m, ctx: HopContext{Tasks: view.tasks, Norm: norm}}
	if memo != nil {
		src.vals = memo.modelTable(m, t)
		if src.vals != nil {
			return src
		}
		src.scorer = memo.modelScorer[m.Name()]
	}
	if src.scorer == nil {
		if _, trainable := m.(EpochTrainable); trainable {
			panic(fmt.Sprintf("core: model %q is epoch-trainable but untrained (call EdgeMemo.RequireModel first)", m.Name()))
		}
	}
	return src
}

// hop evaluates edge e without a memo table.
func (src *modelHopSource) hop(view *TrustView, e int32, t task.Task) (float64, bool) {
	if src.scorer != nil {
		return src.scorer.EdgeTW(view, e, t)
	}
	return src.model.HopTW(src.ctx, view.EdgeRecords(e), t)
}

// findModelView runs the single-path search: a dense BFS whose combine rule
// and ω gating come from the model's spec. The traditional adapter
// (product, ungated) is eq. 5; the conservative adapter (mistrust, gated)
// is eqs. 8–11.
func (s *Searcher) findModelView(res *SearchResult, view *TrustView, memo *EdgeMemo, trustor AgentID, t task.Task, m TrustModel, spec ModelSpec, st *denseState) {
	src := resolveModelHops(view, memo, m, t, s.Norm)
	vals := src.vals
	product := spec.Combine == CombineProduct
	st.inqCur = st.nextStamp()
	st.inqCount = 0
	st.bestCur = st.nextStamp()
	st.candIDs = st.candIDs[:0]
	adjOff, adjTo := view.adjOff, view.adjTo
	cur, nxt := &st.fr[0], &st.fr[1]
	cur.reset(st.nextStamp())
	cur.add(trustor, 1)
	for depth := 1; depth <= s.MaxDepth && len(cur.ids) > 0; depth++ {
		nxt.reset(st.nextStamp())
		relay := depth < s.MaxDepth
		for _, u := range cur.ids {
			uval := cur.val[u]
			base := adjOff[u]
			for k, v := range adjTo[base:adjOff[u+1]] {
				if v == trustor {
					continue
				}
				var hop float64
				var ok bool
				if vals != nil {
					hop = vals[int(base)+k]
					ok = !math.IsNaN(hop)
				} else {
					hop, ok = src.hop(view, base+int32(k), t)
				}
				if !ok {
					continue
				}
				st.markInquired(v)
				var val float64
				if product {
					val = uval * hop
				} else {
					val = CombinePair(uval, hop)
				}
				passTrustee, passRecommender := hop > 0, hop > 0
				if spec.OmegaGated {
					passTrustee, passRecommender = hop >= s.Omega2, hop >= s.Omega1
				}
				if passTrustee && s.isCandidate(v) {
					if st.bestStamp[v] != st.bestCur {
						st.bestStamp[v] = st.bestCur
						st.bestVal[v] = val
						st.candIDs = append(st.candIDs, v)
					} else if val > st.bestVal[v] {
						st.bestVal[v] = val
					}
				}
				if relay && passRecommender {
					nxt.add(v, val)
				}
			}
		}
		cur, nxt = nxt, cur
		slices.Sort(cur.ids)
	}
	res.Candidates = res.Candidates[:0]
	for _, v := range st.candIDs {
		res.Candidates = append(res.Candidates, Candidate{ID: v, TW: st.bestVal[v]})
	}
	SortCandidates(res.Candidates)
	res.Inquired = st.inqCount
}

// findAggressiveView runs the per-characteristic propagation (eqs. 12–17)
// over the view, one stamped best-value layer per characteristic.
func (s *Searcher) findAggressiveView(res *SearchResult, view *TrustView, memo *EdgeMemo, trustor AgentID, t task.Task, st *denseState) {
	chars := t.Characteristics()
	st.ensureChars(len(chars))
	st.inqCur = st.nextStamp()
	st.inqCount = 0
	st.char0IDs = st.char0IDs[:0]
	adjOff, adjTo := view.adjOff, view.adjTo
	for ci, c := range chars {
		vals := memo.charTable(c)
		bStamp, bVal := st.charStamp[ci], st.charVal[ci]
		bCur := st.nextStamp()
		st.charCur[ci] = bCur
		cur, nxt := &st.fr[0], &st.fr[1]
		cur.reset(st.nextStamp())
		cur.add(trustor, 1)
		for depth := 1; depth <= s.MaxDepth && len(cur.ids) > 0; depth++ {
			nxt.reset(st.nextStamp())
			relay := depth < s.MaxDepth
			for _, u := range cur.ids {
				uval := cur.val[u]
				base := adjOff[u]
				for k, v := range adjTo[base:adjOff[u+1]] {
					if v == trustor {
						continue
					}
					var hop float64
					var ok bool
					if vals != nil {
						hop = vals[int(base)+k]
						ok = !math.IsNaN(hop)
					} else {
						hop, ok = CharTWCompact(view.tasks, view.EdgeRecords(base+int32(k)), c, s.Norm)
					}
					if !ok {
						continue
					}
					st.markInquired(v)
					val := CombinePair(uval, hop)
					if s.isCandidate(v) {
						if bStamp[v] != bCur {
							bStamp[v] = bCur
							bVal[v] = val
							if ci == 0 {
								st.char0IDs = append(st.char0IDs, v)
							}
						} else if val > bVal[v] {
							bVal[v] = val
						}
					}
					if relay && hop >= s.Omega1 {
						nxt.add(v, val)
					}
				}
			}
			cur, nxt = nxt, cur
			slices.Sort(cur.ids)
		}
	}
	// Combine per-characteristic estimates with the task weights (eq. 17),
	// requiring full coverage (eq. 12); ω2 applies to the task-level value
	// (eq. 11). Iterating characteristic 0's discovery list visits exactly
	// the keys the live search's perChar[0] map holds.
	weights := t.Weights()
	res.Candidates = res.Candidates[:0]
	for _, v := range st.char0IDs {
		tw, ok := 0.0, true
		for ci := range chars {
			if st.charStamp[ci][v] != st.charCur[ci] {
				ok = false
				break
			}
			tw += weights[ci] * st.charVal[ci][v]
		}
		if ok && tw >= s.Omega2 {
			res.Candidates = append(res.Candidates, Candidate{ID: v, TW: tw})
		}
	}
	SortCandidates(res.Candidates)
	res.Inquired = st.inqCount
}
