package sim

import (
	"fmt"
	"testing"

	"siot/internal/core"
	"siot/internal/rng"
	"siot/internal/socialgen"
	"siot/internal/task"
)

// viewTestPopulation builds a small randomized population with seeded
// transitivity experience.
func viewTestPopulation(t *testing.T, seed uint64, numChars int) (*Population, TransitivitySetup) {
	t.Helper()
	profile := socialgen.Profile{
		Name: fmt.Sprintf("viewtest-%d", seed), Nodes: 200, Edges: 1400,
		Communities: 5, IntraFrac: 0.7, FoF: 0.5, SizeSkew: 1.0,
		Overlap: 0.2, ChainCommunities: 1, FeatureKinds: 4, FeaturesPerNode: 2,
	}
	net := socialgen.Generate(profile, seed)
	p := NewPopulation(net, DefaultPopulationConfig(seed))
	r := p.Rand("view-test")
	setup := DefaultTransitivitySetup(numChars, r)
	setup.MaxDepth = 3
	SeedExperience(p, setup, seed)
	return p, setup
}

// assertSameResult requires bit-identical SearchResults (exact float64
// equality, same candidate order, same inquired count).
func assertSameResult(t *testing.T, label string, want, got core.SearchResult) {
	t.Helper()
	if got.Inquired != want.Inquired {
		t.Fatalf("%s: inquired %d, want %d", label, got.Inquired, want.Inquired)
	}
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("%s: %d candidates, want %d", label, len(got.Candidates), len(want.Candidates))
	}
	for i := range want.Candidates {
		if got.Candidates[i] != want.Candidates[i] {
			t.Fatalf("%s: candidate %d = %+v, want %+v", label, i, got.Candidates[i], want.Candidates[i])
		}
	}
}

// TestFindViewEquivalence asserts that the frozen-epoch search — with the
// edge memo and without — returns byte-identical SearchResults to the
// live-store reference search, for every policy adapter, on randomized
// populations, both with the paper's ω = 0 and with ω gating active.
func TestFindViewEquivalence(t *testing.T) {
	policies := []core.Policy{core.PolicyTraditional, core.PolicyConservative, core.PolicyAggressive}
	for _, seed := range []uint64{1, 7, 42} {
		for _, numChars := range []int{4, 6} {
			p, setup := viewTestPopulation(t, seed, numChars)
			view := p.TrustView()
			memo := core.NewEdgeMemo(view, p.Config().Update.Norm, 2)
			taskRng := rng.New(seed, "view-test-tasks")
			for _, omega := range [][2]float64{{setup.Omega1, setup.Omega2}, {0.75, 0.8}} {
				s := p.Searcher(setup.MaxDepth, omega[0], omega[1])
				for _, pol := range policies {
					m := pol.Model()
					tasks := make([]task.Task, len(p.Trustors))
					for i := range tasks {
						tasks[i] = setup.Universe.Random(taskRng)
					}
					memo.RequireModel(m, tasks)
					for i, x := range p.Trustors {
						want := s.Find(x, tasks[i], pol)
						label := fmt.Sprintf("seed=%d chars=%d ω=%v policy=%s trustor=%d", seed, numChars, omega, pol, x)
						var got core.SearchResult
						s.FindViewModelInto(&got, view, memo, x, tasks[i], m)
						assertSameResult(t, label+" (memo)", want, got)
						s.FindViewModelInto(&got, view, nil, x, tasks[i], m)
						assertSameResult(t, label+" (no memo)", want, got)
					}
				}
			}
		}
	}
}

// TestTransitivityEpochReuseMatchesFreshCapture asserts that a shared
// epoch reused across policies produces exactly the stats of per-call
// captures (the searches are pure, so the snapshot cannot go stale between
// runs). Per-search live-path equivalence is TestFindViewEquivalence's
// job; stats-level continuity with the pre-snapshot engine is pinned by
// the golden-figure snapshots, which were generated on the old path.
func TestTransitivityEpochReuseMatchesFreshCapture(t *testing.T) {
	p, setup := viewTestPopulation(t, 11, 5)
	eng := NewEngine(p, "epoch-test")
	ep := eng.TransitivityEpoch(setup)
	for _, pol := range []core.Policy{core.PolicyTraditional, core.PolicyConservative, core.PolicyAggressive} {
		want := TransitivityRun(p, setup, pol.Model(), 99)
		got := ep.Run(pol.Model(), 99)
		if want.Requests != got.Requests || want.Successes != got.Successes ||
			want.Unavailable != got.Unavailable || want.PotentialTrustees != got.PotentialTrustees {
			t.Fatalf("%s: epoch stats %+v, want %+v", pol, got, want)
		}
		for i := range want.InquiredPerTrustor {
			if want.InquiredPerTrustor[i] != got.InquiredPerTrustor[i] {
				t.Fatalf("%s: inquired[%d] = %d, want %d", pol, i, got.InquiredPerTrustor[i], want.InquiredPerTrustor[i])
			}
		}
	}
}

// TestFindViewZeroAlloc guards the pooled dense scratch state: for every
// registered model, a warm FindViewModelInto with a recycled result must not
// allocate — reading a memo table, and for a task with no table (hops from
// the trained scorer or the model's HopTW).
func TestFindViewZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool fakes misses under -race; allocation counts are meaningless")
	}
	p, setup := viewTestPopulation(t, 3, 5)
	s := p.Searcher(setup.MaxDepth, setup.Omega1, setup.Omega2)
	view := p.TrustView()
	norm := p.Config().Update.Norm
	tk := setup.Universe.Tasks[0]
	trustor := p.Trustors[0]
	for _, name := range core.ModelNames() {
		m, err := core.ParseModel(name)
		if err != nil {
			t.Fatal(err)
		}
		tabled := core.NewEdgeMemo(view, norm, 1)
		tabled.RequireModel(m, []task.Task{tk})
		bare := core.NewEdgeMemo(view, norm, 1)
		bare.RequireModel(m, nil) // trains epoch-trainable models, builds no table
		for _, memo := range []struct {
			label string
			memo  *core.EdgeMemo
		}{{"table", tabled}, {"no table", bare}} {
			var res core.SearchResult
			s.FindViewModelInto(&res, view, memo.memo, trustor, tk, m) // warm pool and result
			allocs := testing.AllocsPerRun(50, func() {
				s.FindViewModelInto(&res, view, memo.memo, trustor, tk, m)
			})
			if allocs != 0 {
				t.Errorf("%s (%s): %.1f allocs/op after warmup, want 0", name, memo.label, allocs)
			}
		}
	}
}
