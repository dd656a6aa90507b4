package benchnet

import (
	"os"
	"testing"
	"time"

	"siot/internal/core"
	"siot/internal/sim"
	"siot/internal/socialgen"
)

// TestScaleSmoke1M is the CI scale gate for the million-node path: generate
// the canonical 1M-node / 6M-edge network, populate it, seed transitivity
// experience, and run one frozen-epoch aggressive transitivity sweep on the
// streaming sharded path — the full pipeline — under whatever memory budget
// the environment imposes (CI sets GOMEMLIMIT). It runs only when
// SIOT_SCALE1M is set: at ~6 GB peak it has no place in the default test
// sweep.
func TestScaleSmoke1M(t *testing.T) {
	if os.Getenv("SIOT_SCALE1M") == "" {
		t.Skip("set SIOT_SCALE1M=1 to run the million-node scale smoke")
	}
	profile := Net1M()
	start := time.Now()
	net := socialgen.Generate(profile, Seed)
	t.Logf("generate: %v", time.Since(start))
	if got := net.Graph.NumNodes(); got != profile.Nodes {
		t.Fatalf("generated %d nodes, want %d", got, profile.Nodes)
	}
	if got := net.Graph.NumEdges(); got != profile.Edges {
		t.Fatalf("generated %d edges, want %d", got, profile.Edges)
	}

	start = time.Now()
	p, setup := Populate(net)
	t.Logf("populate+seed: %v", time.Since(start))
	if got := p.Net.Graph.NumNodes(); got != profile.Nodes {
		t.Fatalf("population covers %d nodes, want %d", got, profile.Nodes)
	}
	if len(p.Trustors) == 0 {
		t.Fatal("populated network has no trustors")
	}

	start = time.Now()
	st := (&sim.Engine{Pop: p, Label: "perf"}).TransitivityRunModel(setup, core.PolicyAggressive.Model(), Seed)
	t.Logf("sweep: %v (%d requests, %d potential trustees, %d successes)",
		time.Since(start), st.Requests, st.PotentialTrustees, st.Successes)
	if st.Requests != len(p.Trustors) {
		t.Fatalf("sweep issued %d requests, want one per trustor (%d)", st.Requests, len(p.Trustors))
	}
	if st.PotentialTrustees <= 0 || st.Successes <= 0 {
		t.Fatalf("degenerate sweep: %d potential trustees, %d successes", st.PotentialTrustees, st.Successes)
	}
}
