package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"siot/internal/benchnet"
	"siot/internal/core"
	"siot/internal/serve"
	"siot/internal/sim"
	"siot/internal/socialgen"
)

// Query kinds of the serve mix: who the trustee is relative to the trustor.
const (
	kindNeighbor = iota // a social neighbour: ¼ of queries
	kindTwoHop          // a neighbour's neighbour: ½
	kindRandom          // a uniform random agent: ¼
	numKinds
)

type query struct {
	trustor, trustee core.AgentID
	typ              int
}

// ingestDeadline is siot-serve's default -ingest-timeout: how long an
// ingest waits on a full queue before it is shed with ErrOverloaded.
const ingestDeadline = time.Second

// serveConfig is the engine configuration siot-serve deploys by default
// (aggressive model, seeded world, θ 0.3, republish every 256 events or 1 s,
// group-commit fsync), at the workload's node count and seed.
func serveConfig(nodes int, seed uint64, journal *os.File) serve.Config {
	return serve.Config{
		Nodes: nodes, Seed: seed, Model: mustModel("aggressive"), Seeded: true, Theta: 0.3,
		EpochEvery: 256, EpochInterval: time.Second,
		Journal: journal, Fsync: serve.FsyncBatch,
	}
}

func mustModel(name string) core.TrustModel {
	m, err := core.ParseModel(name)
	if err != nil {
		panic(err) // the names used here are registered by package core itself
	}
	return m
}

// pickTrustor draws a uniform agent that has at least one neighbour.
func pickTrustor(r *rand.Rand, g *serve.Engine) core.AgentID {
	for {
		x := core.AgentID(r.IntN(g.NumAgents()))
		if len(g.Neighbors(x)) > 0 {
			return x
		}
	}
}

// genQueries draws n queries of the serve mix over types task types.
func genQueries(r *rand.Rand, g *serve.Engine, types, n int) []query {
	qs := make([]query, n)
	for i := range qs {
		x := pickTrustor(r, g)
		y := x
		kind := kindRandom
		switch u := r.IntN(4); {
		case u == 0:
			kind = kindNeighbor
		case u <= 2:
			kind = kindTwoHop
		}
		for tries := 0; y == x && tries < 8; tries++ {
			switch kind {
			case kindNeighbor:
				nb := g.Neighbors(x)
				y = nb[r.IntN(len(nb))]
			case kindTwoHop:
				nb := g.Neighbors(x)
				mid := nb[r.IntN(len(nb))]
				nb2 := g.Neighbors(mid)
				y = nb2[r.IntN(len(nb2))]
			default:
				y = core.AgentID(r.IntN(g.NumAgents()))
			}
		}
		qs[i] = query{trustor: x, trustee: y, typ: r.IntN(types)}
	}
	return qs
}

// kindShares measures what the drawn mix actually is: the share of queries
// whose trustee is a neighbour, a two-hop neighbour, or neither.
func kindShares(g *serve.Engine, qs []query) [numKinds]float64 {
	var n [numKinds]int
	for _, q := range qs {
		nb := g.Neighbors(q.trustor)
		if _, ok := slices.BinarySearch(nb, q.trustee); ok {
			n[kindNeighbor]++
			continue
		}
		two := false
		for _, mid := range nb {
			if _, ok := slices.BinarySearch(g.Neighbors(mid), q.trustee); ok {
				two = true
				break
			}
		}
		if two {
			n[kindTwoHop]++
		} else {
			n[kindRandom]++
		}
	}
	var out [numKinds]float64
	for k := range out {
		out[k] = float64(n[k]) / float64(max(len(qs), 1))
	}
	return out
}

// genEvents draws n ingestable events: four in five observations, the rest
// recommendations, each along a social edge.
func genEvents(r *rand.Rand, g *serve.Engine, types, n int) []serve.Event {
	evs := make([]serve.Event, n)
	for i := range evs {
		x := pickTrustor(r, g)
		nb := g.Neighbors(x)
		ev := serve.Event{Trustor: x, Trustee: nb[r.IntN(len(nb))], Type: r.IntN(types)}
		if r.IntN(5) < 4 {
			ev.Op = serve.OpObserve
			ev.Outcome = core.Outcome{Success: r.Float64() < 0.7, Gain: r.Float64(), Damage: 0.5 * r.Float64(), Cost: 0.3 * r.Float64()}
			ev.Abusive = r.Float64() < 0.1
		} else {
			ev.Op = serve.OpRecommend
			ev.Exp = core.Expectation{S: r.Float64(), G: r.Float64(), D: 0.5 * r.Float64(), C: 0.3 * r.Float64()}
		}
		evs[i] = ev
	}
	return evs
}

// slot is one entry of the merged open-loop schedule.
type slot struct {
	due    int64 // ns after the schedule starts
	idx    int32 // into the query or event list
	ingest bool
}

// schedule interleaves evenly spaced queries and ingests over dur.
func schedule(nq, ne int, dur time.Duration) []slot {
	out := make([]slot, 0, nq+ne)
	for i := range nq {
		out = append(out, slot{due: int64(dur) * int64(i) / int64(nq), idx: int32(i)})
	}
	for i := range ne {
		// Offset by half a gap so ingests do not land on query slots.
		out = append(out, slot{due: int64(dur) * (2*int64(i) + 1) / (2 * int64(ne)), idx: int32(i), ingest: true})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].due < out[b].due })
	return out
}

// ackRec is the outcome of one open-loop ingest.
type ackRec struct {
	due, call, ack int64 // schedule ns: due, IngestCtx entered, IngestCtx returned
	err            error
}

// journalRun is what one engine served, for the replay check.
type journalRun struct {
	path            string
	queries, events int
}

// serveResult holds what the serve phases measured, pooled over the
// run's worlds.
type serveResult struct {
	setupNs []int64

	queries, ingests, failed int
	queryLatNs               []int64  // open loop, from due time
	ackLatNs                 []int64  // acknowledged ingests, from due time
	batchNs                  perWorld // closed loop, one per batch of batchSize queries
	visibilityNs             []int64
	lagNs                    []int64
	batchQueries             int
	journals                 []journalRun
	openEpochs, shed         uint64 // epochs published during the open loops; events shed
	openNs                   int64  // total open-loop time
	fsyncP99Ns               int64
	gc                       gcWindow
	shares                   [numKinds]float64 // first world

	// Traced run only.
	trustSvcNs    []int64
	ingestCallNs  []int64
	queueDepthMax int
	found, direct int
	searchNs      []int64 // the first world's query mix answered on an identical frozen world
	searchErr     error   // the identical-world answers differ from the engine's
	epochBuildNs  int64   // one capture + memo on the identical world
}

// worldSeed derives the seed of the k-th world of a run. World 0 is the
// run's own seed.
func worldSeed(seed uint64, k int) uint64 { return seed ^ uint64(k)<<32 }

// openWorlds is how many of a run's served worlds take the open loop.
const openWorlds = 3

// runServe serves w.serveWorlds worlds in turn, each built with serve.New
// (timed as set-up) and sent the closed-loop query batches; the first
// openWorlds are then driven by the open loop for their share of openDur.
// Every world is then closed. Batches on many worlds keep one unusual
// world from setting the query figure; open loops on a few leave each long
// enough for several republishes. The journals are left in dir for the
// replay check.
func runServe(w workload, seed uint64, openDur time.Duration, dir string, tr *track) (*serveResult, error) {
	res := &serveResult{}
	open := min(openWorlds, w.serveWorlds)
	for i := range w.serveWorlds {
		var d time.Duration
		if i < open {
			d = openDur / time.Duration(open)
		}
		if err := res.serveWorld(w, worldSeed(seed, i), i, d, dir, tr); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	return res, nil
}

func (res *serveResult) serveWorld(w workload, seed uint64, idx int, openDur time.Duration, dir string, tr *track) error {
	jr := journalRun{path: fmt.Sprintf("%s/journal-%d.jsonl", dir, idx)}
	jf, err := os.Create(jr.path)
	if err != nil {
		return fmt.Errorf("create journal: %w", err)
	}
	defer jf.Close()
	sp := tr.begin("serve.New")
	start := time.Now()
	eng, err := serve.New(serveConfig(w.serveNodes, seed, jf))
	res.setupNs = append(res.setupNs, time.Since(start).Nanoseconds())
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("serve.New: %w", err)
	}

	r := rand.New(rand.NewPCG(seed, 0x5e7e))
	types := len(eng.TaskTypes())
	qs := genQueries(r, eng, types, int(w.queryQPS*openDur.Seconds()))
	evs := genEvents(r, eng, types, int(w.ingestPS*openDur.Seconds()))
	batchQs := genQueries(r, eng, types, batchSize*batchCount)
	traced := tr != nil
	first := idx == 0
	if first {
		res.shares = kindShares(eng, qs)
	}

	// The batches run first, while the engine serves its initial epoch and
	// the writer has nothing to apply or publish.
	runtime.GC()
	g0 := gcNow()
	sp = tr.begin("serve.Engine.Trust.batches")
	n := res.batches(eng, batchQs)
	tr.end(sp)
	var served []serve.TrustResult
	if openDur > 0 {
		e0 := eng.Stats().Epochs
		served = res.openLoop(eng, qs, evs, openDur, traced)
		res.openEpochs += eng.Stats().Epochs - e0
		res.openNs += int64(openDur)
	}
	res.gc = res.gc.plus(g0.to(gcNow()))

	st := eng.Stats()
	res.shed += st.ShedTotal
	res.fsyncP99Ns = max(res.fsyncP99Ns, st.FsyncP99Ns)
	if err := eng.Close(); err != nil {
		return fmt.Errorf("close engine: %w", err)
	}
	if err := jf.Close(); err != nil {
		return fmt.Errorf("close journal: %w", err)
	}
	jr.queries = len(qs) + n
	jr.events = int(st.Applied)
	res.journals = append(res.journals, jr)
	if traced && first {
		eng = nil
		runtime.GC()
		res.searchErr = res.searchOnIdenticalWorld(w, seed, qs, served, tr)
	}
	return nil
}

// openLoop releases qs and evs on an even schedule over dur from one pacing
// goroutine. Queries run inline; each ingest runs on its own goroutine so
// group commit can batch the ones in flight. Every request is timed from
// its due time. The traced run gets the answers back, by query.
func (res *serveResult) openLoop(eng *serve.Engine, qs []query, evs []serve.Event, dur time.Duration, traced bool) []serve.TrustResult {
	sched := schedule(len(qs), len(evs), dur)
	qlat := make([]int64, len(qs))
	qdone := make([]int64, len(qs))
	qepoch := make([]uint64, len(qs))
	var svc []int64
	var served []serve.TrustResult
	if traced {
		svc = make([]int64, len(qs))
		served = make([]serve.TrustResult, len(qs))
	}
	acks := make([]ackRec, len(evs))
	lags := make([]int64, len(sched))
	var qerr atomic.Int64

	stopDepth := make(chan struct{})
	var depthWG sync.WaitGroup
	if traced {
		depthWG.Add(1)
		go func() {
			defer depthWG.Done()
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopDepth:
					return
				case <-tick.C:
					res.queueDepthMax = max(res.queueDepthMax, eng.Stats().QueueDepth)
				}
			}
		}()
	}

	var ingWG sync.WaitGroup
	done := make(chan struct{})
	go func() {
		defer close(done)
		lockThread()
		p := newPacer(dur / time.Duration(max(len(sched), 1)))
		for si, s := range sched {
			lags[si] = p.wait(s.due)
			if s.ingest {
				ingWG.Add(1)
				go func(i int32, due int64) {
					defer ingWG.Done()
					ctx, cancel := context.WithTimeout(context.Background(), ingestDeadline)
					call := p.now()
					err := eng.IngestCtx(ctx, evs[i])
					cancel()
					acks[i] = ackRec{due: due, call: call, ack: p.now(), err: err}
				}(s.idx, s.due)
				continue
			}
			q := qs[s.idx]
			var t0 int64
			if traced {
				t0 = p.now()
			}
			tr, err := eng.Trust(q.trustor, q.trustee, q.typ)
			t1 := p.now()
			if err != nil {
				qerr.Add(1)
			}
			qlat[s.idx] = t1 - s.due
			qdone[s.idx] = t1
			qepoch[s.idx] = tr.Epoch
			if traced {
				svc[s.idx] = t1 - t0
				served[s.idx] = tr
				if tr.Found {
					res.found++
				}
				if tr.Direct {
					res.direct++
				}
			}
		}
	}()
	<-done
	ingWG.Wait()
	close(stopDepth)
	depthWG.Wait()

	res.queries += len(qs)
	res.ingests += len(evs)
	res.failed += int(qerr.Load())
	res.queryLatNs = append(res.queryLatNs, qlat...)
	res.lagNs = append(res.lagNs, lags...)
	res.trustSvcNs = append(res.trustSvcNs, svc...)
	var failed int
	var firstErr error
	for _, a := range acks {
		if a.err != nil {
			failed++
			if firstErr == nil {
				firstErr = a.err
			}
			continue
		}
		res.ackLatNs = append(res.ackLatNs, a.ack-a.due)
		if traced {
			res.ingestCallNs = append(res.ingestCallNs, a.ack-a.call)
		}
	}
	res.failed += failed
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d ingests failed, first: %v\n", failed, firstErr)
	}
	if n := qerr.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d queries failed\n", n)
	}
	res.visibilityNs = append(res.visibilityNs, visibility(acks, qdone, qepoch)...)
	return served
}

// visibility measures, for every acknowledged ingest, the time from its ack
// to the first query that answers from a later epoch than the one a query
// observed right after the ack. qdone is nondecreasing (one issuer) and so
// is qepoch. Acks with no later epoch inside the phase are left out.
func visibility(acks []ackRec, qdone []int64, qepoch []uint64) []int64 {
	// nextHigher[i] is the first query after i with a higher epoch, or -1.
	nextHigher := make([]int, len(qepoch))
	next := -1
	for i := len(qepoch) - 1; i >= 0; i-- {
		if i+1 < len(qepoch) && qepoch[i+1] > qepoch[i] {
			next = i + 1
		}
		nextHigher[i] = next
	}
	var out []int64
	for _, a := range acks {
		if a.err != nil {
			continue
		}
		j := sort.Search(len(qdone), func(i int) bool { return qdone[i] > a.ack })
		if j == len(qdone) || nextHigher[j] < 0 {
			continue
		}
		out = append(out, qdone[nextHigher[j]]-a.ack)
	}
	return out
}

// The closed loop: batchCount batches of batchSize queries per served world.
// A batch is a unit of like work timed as a whole. The count is fixed
// rather than timed because every query is journaled and replayed after the
// window.
const (
	batchSize  = 1024
	batchCount = 16
)

// batches sends qs from one issuer, back to back in batches of batchSize,
// records each batch's time and returns how many queries it sent.
func (res *serveResult) batches(eng *serve.Engine, qs []query) int {
	var failed int
	res.batchNs = append(res.batchNs, nil)
	w := len(res.batchNs) - 1
	for b := 0; b+batchSize <= len(qs); b += batchSize {
		start := time.Now()
		for _, q := range qs[b : b+batchSize] {
			if _, err := eng.Trust(q.trustor, q.trustee, q.typ); err != nil {
				failed++
			}
		}
		res.batchNs[w] = append(res.batchNs[w], time.Since(start).Nanoseconds())
	}
	n := len(qs) / batchSize * batchSize
	res.batchQueries += n
	res.queries += n
	res.failed += failed
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d batch queries failed\n", failed)
	}
	return n
}

// searchOnIdenticalWorld rebuilds the engine's initial world through the
// same public calls serve uses, freezes it, and answers the open-loop query
// mix the way the engine does — direct experience, else the model's search —
// timing each answer. This is the search layer of a served query without
// epoch acquire and journaling. Queries the engine answered from epoch 0
// are compared bit-for-bit, which checks the world really is identical.
func (res *serveResult) searchOnIdenticalWorld(w workload, seed uint64, qs []query, served []serve.TrustResult, tr *track) error {
	sp := tr.begin("serve.identical_world")
	net := socialgen.Generate(benchnet.Profile(w.serveNodes), seed)
	pcfg := sim.DefaultPopulationConfig(seed)
	pcfg.Theta = 0.3
	workers := runtime.GOMAXPROCS(0) // serve.Config.Workers' default
	pcfg.Parallelism = workers
	pop := sim.NewPopulation(net, pcfg)
	setup := sim.DefaultTransitivitySetup(5, pop.Rand("serve-setup"))
	sim.SeedExperience(pop, setup, seed)
	searcher := pop.Searcher(setup.MaxDepth, setup.Omega1, setup.Omega2)
	tr.end(sp)

	// One epoch build as the engine's writer does it: capture, memo, and the
	// served model's tables over the task universe.
	sp = tr.begin("serve.epoch_build")
	pool := core.NewArenaPool()
	view := pop.RoundView(workers, pool)
	defer view.Release()
	m := mustModel("aggressive")
	memo := core.NewEdgeMemoPooled(view.TrustView, pop.Config().Update.Norm, workers, pool)
	defer memo.Release()
	memo.RequireModel(m, setup.Universe.Tasks)
	res.epochBuildNs = int64(tr.end(sp))

	sp = tr.begin("core.search.serve_mix")
	defer tr.end(sp)
	var sr core.SearchResult
	res.searchNs = make([]int64, len(qs))
	for i, q := range qs {
		t := setup.Universe.Tasks[q.typ]
		start := time.Now()
		var tw float64
		var found, direct bool
		if edge, ok := view.EdgeIndex(q.trustor, q.trustee); ok {
			tw, direct = view.BestTW(edge, t)
			found = direct
		}
		if !direct {
			searcher.FindViewModelInto(&sr, view.TrustView, memo, q.trustor, t, m)
			for _, c := range sr.Candidates {
				if c.ID == q.trustee {
					tw, found = c.TW, true
					break
				}
			}
		}
		res.searchNs[i] = time.Since(start).Nanoseconds()
		if served[i].Epoch != 0 {
			continue
		}
		got := serve.TrustResult{TW: tw, Found: found, Direct: direct}
		if want := served[i]; math.Float64bits(got.TW) != math.Float64bits(want.TW) || got.Found != want.Found || got.Direct != want.Direct {
			return fmt.Errorf("query %d trust(%d, %d, type %d): identical world answers %+v, engine served %+v at epoch 0",
				i, q.trustor, q.trustee, q.typ, got, want)
		}
	}
	return nil
}
