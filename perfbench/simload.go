package main

import (
	"fmt"
	"runtime"
	"time"

	"siot/internal/core"
	"siot/internal/rng"
	"siot/internal/sim"
	"siot/internal/socialgen"
	"siot/internal/task"
)

// sweepModels is every registered trust model, in the order the paper
// introduces them; checkModels keeps it in step with the registry.
var sweepModels = []string{"traditional", "conservative", "aggressive", "hellinger-mf", "feature-weighted"}

// roundsPerCycle is how many delegation rounds each simulation cycle plays
// before its sweeps.
const roundsPerCycle = 10

func checkModels() error {
	reg := core.ModelNames()
	if len(reg) != len(sweepModels) {
		return fmt.Errorf("registered models %v, benchmark sweeps %v", reg, sweepModels)
	}
	for _, name := range sweepModels {
		if _, err := core.ParseModel(name); err != nil {
			return fmt.Errorf("benchmark sweeps %q: %w", name, err)
		}
	}
	return nil
}

// simWorkers is the worker-pool width of the simulated populations: the
// simulation runs serially. Its results are bit-identical at every width,
// and one worker is what keeps its timings steady on a shared host of a few
// processors, where a second worker contends with the runtime and with
// whatever else the host runs.
const simWorkers = 1

// sweepDigest is the model-level outcome of one sweep that the correctness
// check pins.
type sweepDigest struct {
	Requests          int `json:"requests"`
	Successes         int `json:"successes"`
	Unavailable       int `json:"unavailable"`
	PotentialTrustees int `json:"potential_trustees"`
	Inquired          int `json:"inquired"`
}

// simDigest is what the first cycle of a seed produces: the round counters
// after its rounds and each model's sweep outcome.
type simDigest struct {
	Rounds sim.MutualityCounters  `json:"rounds"`
	Sweeps map[string]sweepDigest `json:"sweeps"`
}

func digestOf(st sim.TransitivityStats) sweepDigest {
	d := sweepDigest{Requests: st.Requests, Successes: st.Successes, Unavailable: st.Unavailable, PotentialTrustees: st.PotentialTrustees}
	for _, n := range st.InquiredPerTrustor {
		d.Inquired += n
	}
	return d
}

// simResult holds what the simulation phase measured.
type simResult struct {
	generateNs, populateNs, seedNs []int64 // one per set-up repetition
	roundNs                        perWorld
	sweepNs                        map[string]perWorld
	rounds, sweeps                 int
	digest                         simDigest
	gc                             gcWindow

	// Traced run only.
	captureNs   []int64
	viewRecords int
	memoNs      map[string][]int64
	searchNs    map[string][]int64
	inquired    map[string]int // first cycle, from the harness's own searches
	roundRestNs []int64
	sweepRestNs map[string][]int64
	decompErr   error // the harness's searches disagree with a sweep
}

// universeSeed draws the task universe, the same for every seed: the ten
// task types are part of the workload, like the query mix. A universe drawn
// from each seed changed how much a sweep searches by up to 2x between
// seeds on one 10k network (conservative: 152k to 304k nodes inquired),
// while the network and population seeds move it by a few percent.
const universeSeed = 1

// buildPopulation is the benchmark population of a profile and seed:
// generate the network, populate it, seed transitivity experience (the
// benchnet recipe, at the workload's seed, over the fixed task universe).
func buildPopulation(profile socialgen.Profile, seed uint64, res *simResult, tr *track) (*sim.Population, sim.TransitivitySetup) {
	sp := tr.begin("socialgen.Generate")
	start := time.Now()
	net := socialgen.Generate(profile, seed)
	res.generateNs = append(res.generateNs, time.Since(start).Nanoseconds())
	tr.end(sp)

	sp = tr.begin("sim.NewPopulation")
	start = time.Now()
	cfg := sim.DefaultPopulationConfig(seed)
	cfg.Parallelism = simWorkers
	p := sim.NewPopulation(net, cfg)
	setup := sim.DefaultTransitivitySetup(5, rng.New(universeSeed, "perfbench-universe"))
	setup.MaxDepth = 3
	res.populateNs = append(res.populateNs, time.Since(start).Nanoseconds())
	tr.end(sp)

	sp = tr.begin("sim.SeedExperience")
	start = time.Now()
	sim.SeedExperience(p, setup, seed)
	res.seedNs = append(res.seedNs, time.Since(start).Nanoseconds())
	tr.end(sp)
	return p, setup
}

// runSim builds w.simWorlds populations in turn (each timed as set-up); the
// first w.playWorlds then play cycles of {roundsPerCycle mutuality rounds;
// one sweep per model} until their share of budget is spent and at least
// minCycles ran. The traced run also times each layer of a round and a
// sweep on the same state.
func runSim(w workload, seed uint64, budget time.Duration, tr *track) (*simResult, error) {
	if err := checkModels(); err != nil {
		return nil, err
	}
	res := &simResult{sweepNs: map[string]perWorld{}}
	if tr != nil {
		res.memoNs = map[string][]int64{}
		res.searchNs = map[string][]int64{}
		res.inquired = map[string]int{}
		res.sweepRestNs = map[string][]int64{}
	}
	for i := range w.simWorlds {
		runtime.GC()
		ws := worldSeed(seed, i)
		pop, setup := buildPopulation(w.simProfile, ws, res, tr)
		if i >= w.playWorlds {
			continue
		}
		runtime.GC()
		g0 := gcNow()
		res.roundNs = append(res.roundNs, nil)
		for _, name := range sweepModels {
			res.sweepNs[name] = append(res.sweepNs[name], nil)
		}
		res.cycles(pop, setup, ws, budget/time.Duration(w.playWorlds), i, tr)
		res.gc = res.gc.plus(g0.to(gcNow()))
	}
	return res, nil
}

// cycles plays simulation cycles on one population.
func (res *simResult) cycles(pop *sim.Population, setup sim.TransitivitySetup, seed uint64, budget time.Duration, world int, tr *track) {
	traced := tr != nil
	first := world == 0
	eng := &sim.Engine{Pop: pop, Label: "perfbench", Parallelism: simWorkers}
	tk := task.Uniform(1, task.CharCompute)
	pool := core.NewArenaPool()
	models := make([]core.TrustModel, len(sweepModels))
	for i, name := range sweepModels {
		models[i] = mustModel(name)
	}
	start := time.Now()
	round := 0
	for cycle := 0; cycle < minCycles || time.Since(start) < budget; cycle++ {
		var c sim.MutualityCounters
		for range roundsPerCycle {
			var capNs int64
			if traced {
				sp := tr.begin("sim.Population.RoundView")
				v := pop.RoundView(simWorkers, pool)
				capNs = int64(tr.end(sp))
				res.captureNs = append(res.captureNs, capNs)
				res.viewRecords = viewRecords(v.TrustView)
				v.Release()
			}
			sp := tr.begin("sim.Engine.MutualityRound")
			t0 := time.Now()
			eng.MutualityRound(round, tk, &c)
			ns := time.Since(t0).Nanoseconds()
			tr.end(sp)
			res.roundNs[world] = append(res.roundNs[world], ns)
			if traced {
				res.roundRestNs = append(res.roundRestNs, remainder(ns, capNs))
			}
			round++
			res.rounds++
		}
		if first && cycle == 0 {
			res.digest = simDigest{Rounds: c, Sweeps: map[string]sweepDigest{}}
		}
		sweepSeed := seed + uint64(cycle)
		for i, m := range models {
			name := sweepModels[i]
			sp := tr.begin("sim.Engine.TransitivityRunModel." + name)
			t0 := time.Now()
			st := eng.TransitivityRunModel(setup, m, sweepSeed)
			ns := time.Since(t0).Nanoseconds()
			tr.end(sp)
			res.sweepNs[name][world] = append(res.sweepNs[name][world], ns)
			res.sweeps++
			d := digestOf(st)
			if first && cycle == 0 {
				res.digest.Sweeps[name] = d
			}
			if traced {
				if err := res.decomposeSweep(pop, setup, m, sweepSeed, ns, d, pool, tr); err != nil && res.decompErr == nil {
					res.decompErr = err
				}
			}
		}
	}
}

// decomposeSweep re-runs the layers of one sweep on the unchanged state —
// capture, memo over the task universe (model training included), and the
// search of every trustor for the task the sweep drew — and checks the
// harness's own searches inquire and find exactly what the sweep reported.
func (res *simResult) decomposeSweep(pop *sim.Population, setup sim.TransitivitySetup, m core.TrustModel, seed uint64, sweepNs int64, want sweepDigest, pool *core.ArenaPool, tr *track) error {
	name := m.Name()

	sp := tr.begin("core.capture." + name)
	view := pop.RoundView(simWorkers, pool)
	capNs := int64(tr.end(sp))
	defer view.Release()
	res.captureNs = append(res.captureNs, capNs)

	sp = tr.begin("core.memo." + name)
	memo := core.NewEdgeMemoPooled(view.TrustView, pop.Config().Update.Norm, simWorkers, pool)
	memo.RequireModel(m, setup.Universe.Tasks)
	memoNs := int64(tr.end(sp))
	defer memo.Release()
	res.memoNs[name] = append(res.memoNs[name], memoNs)

	taskRng := rng.New(seed, "transitivity-tasks", pop.Net.Profile.Name)
	tasks := make([]task.Task, len(pop.Trustors))
	for i := range tasks {
		tasks[i] = setup.Universe.Random(taskRng)
	}
	s := pop.Searcher(setup.MaxDepth, setup.Omega1, setup.Omega2)
	var inq, pot int
	var sr core.SearchResult
	sp = tr.begin("core.search." + name)
	for i, t := range tasks {
		s.FindViewModelInto(&sr, view.TrustView, memo, pop.Trustors[i], t, m)
		inq += sr.Inquired
		pot += len(sr.Candidates)
	}
	searchNs := int64(tr.end(sp))
	res.searchNs[name] = append(res.searchNs[name], searchNs)
	res.sweepRestNs[name] = append(res.sweepRestNs[name], remainder(sweepNs, capNs, memoNs, searchNs))

	if _, seen := res.inquired[name]; !seen {
		res.inquired[name] = inq
	}
	if inq != want.Inquired || pot != want.PotentialTrustees {
		return fmt.Errorf("%s sweep: harness searches inquired %d and found %d candidates, the sweep reported %d and %d",
			name, inq, pot, want.Inquired, want.PotentialTrustees)
	}
	return nil
}

// viewRecords counts the experience records a frozen view holds.
func viewRecords(v *core.TrustView) int {
	n := 0
	for e := range v.NumEdges() {
		n += len(v.EdgeRecords(int32(e)))
	}
	return n
}
