package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"siot/internal/benchnet"
)

func TestTailRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{n: 1000, q: 0.99, want: 989},  // nearest rank 990 leaves 10 beyond it
		{n: 2000, q: 0.99, want: 1979}, // 20 beyond: the rule does not bind
		{n: 500, q: 0.99, want: 489},   // nearest rank 495 would leave 5: lowered to 10 beyond
		{n: 100, q: 0.50, want: 49},
		{n: 20, q: 0.50, want: 9}, // exactly 10 beyond
		{n: 15, q: 0.50, want: 4}, // lowered so 10 remain beyond
		{n: 5, q: 0.50, want: 0},  // no percentile qualifies
	} {
		if got := tailRank(c.n, c.q); got != c.want {
			t.Errorf("tailRank(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
		if c.n > minTail && c.n-1-tailRank(c.n, c.q) < minTail {
			t.Errorf("tailRank(%d, %v) leaves fewer than %d samples beyond", c.n, c.q, minTail)
		}
	}
}

func TestPercentileKnownInputs(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000 down to 1; percentile sorts
	}
	if got := percentile(slices.Clone(xs), 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := percentile(slices.Clone(xs), 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(xs[:200], 0.99); got != 990 {
		// 200 samples 801..1000: p99 would leave 2 beyond; lowered to the
		// 190th smallest, which leaves 10.
		t.Errorf("p99 of 801..1000 = %v, want 990", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestPerWorldTypical(t *testing.T) {
	// World medians 2000 and 5000 ns; the empty world is skipped, so a
	// world that gave no timings does not pull the mean down.
	p := perWorld{{3000, 1000, 2000}, {}, {4000, 6000}}
	if got := p.typical(1e-3); got != 3.5 {
		t.Errorf("typical = %v µs, want 3.5", got)
	}
	if got := (perWorld{{}}).typical(1); !math.IsNaN(got) {
		t.Errorf("typical of no timings = %v, want NaN", got)
	}
}

func TestSpanSelfTimeAndRemainder(t *testing.T) {
	// sweep [0,100) holds capture [0,20) and memo [20,50), memo holds
	// train [25,45); search [50,90) is a sibling of sweep's children.
	spans := []span{
		{Name: "sweep", Parent: -1, Start: 0, Dur: 100},
		{Name: "capture", Parent: 0, Start: 0, Dur: 20},
		{Name: "memo", Parent: 0, Start: 20, Dur: 30},
		{Name: "train", Parent: 2, Start: 25, Dur: 20},
		{Name: "search", Parent: 0, Start: 50, Dur: 40},
	}
	want := []int64{10, 20, 10, 20, 40}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got := remainder(100.0, 20, 30, 40); got != 10 {
		t.Errorf("remainder = %v, want 10", got)
	}
	if got := remainder[int64](180_000_000, 75_000_000); got != 105_000_000 {
		t.Errorf("remainder = %v, want 105000000", got)
	}

	tr := newTrack(time.Now())
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.end(outer)
	if tr.spans[inner].Parent != outer || tr.spans[outer].Parent != -1 {
		t.Errorf("nesting not recorded: %+v", tr.spans)
	}
	if self := selfTimes(tr.spans); self[outer] != tr.spans[outer].Dur-tr.spans[inner].Dur {
		t.Errorf("outer self time %d, want %d", self[outer], tr.spans[outer].Dur-tr.spans[inner].Dur)
	}
	var off *track // the untraced run's nil track records nothing
	off.end(off.begin("x"))
}

// tiny scales a workload down to 1k-node worlds and one served world,
// keeping its mix, so the whole run including its checks takes seconds.
func tiny(w workload) workload {
	w.serveNodes = 1000
	w.simProfile = benchnet.Profile(1000)
	w.queryQPS /= 10
	w.ingestPS = min(w.ingestPS, 50)
	w.serveWorlds = 1
	return w
}

// unpinnedSeed has no digest in pinned.json, like every seed but one.
const unpinnedSeed = 7

func benchmarkJSON(t *testing.T) (e2e, perLayer map[string]string, names []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	e2e, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	return e2e, perLayer, names
}

func sameMetrics(t *testing.T, label string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", label, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", label, name)
		}
	}
}

// TestSmokeWorkloads runs every workload at tiny scale, untraced and
// traced, with all correctness checks, and checks the metrics printed are
// exactly the ones BENCHMARK.json declares.
func TestSmokeWorkloads(t *testing.T) {
	e2e, perLayer, names := benchmarkJSON(t)
	if !slices.Equal(names, []string{"small", "large"}) || len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, harness has %v", names, workloadNames())
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				rep, err := run(name, tiny(workloads[name]), unpinnedSeed, 4*time.Second, traced, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
				want := e2e
				if traced {
					want = perLayer
				}
				sameMetrics(t, name, rep.Metrics, want)
			})
		}
	}
}

// tamperQuery rewrites the first query line of a journal with one bit of
// its served value flipped and a recomputed CRC, so only the bit-exact
// replay comparison can notice.
func tamperQuery(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	for i, ln := range lines {
		if !bytes.Contains(ln, []byte(`"kind":"query"`)) {
			continue
		}
		var env struct {
			CRC  string          `json:"crc"`
			Line json.RawMessage `json:"line"`
		}
		if err := json.Unmarshal(ln, &env); err != nil {
			t.Fatal(err)
		}
		var inner map[string]any
		if err := json.Unmarshal(env.Line, &inner); err != nil {
			t.Fatal(err)
		}
		q := inner["query"].(map[string]any)
		var bits uint64
		fmt.Sscanf(q["tw_bits"].(string), "%016x", &bits)
		bits ^= 1
		q["tw_bits"] = fmt.Sprintf("%016x", bits)
		q["tw"] = math.Float64frombits(bits)
		body, err := json.Marshal(inner)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = fmt.Appendf(nil, `{"crc":"%08x","line":%s}`+"\n", crc32.ChecksumIEEE(body), body)
		if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("journal has no query line")
}

func TestReplayCatchesTamperedLine(t *testing.T) {
	dir := t.TempDir()
	sv, err := runServe(tiny(workloads["large"]), unpinnedSeed, time.Second, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	j := sv.journals[0]
	if _, err := replayCheck(j.path, j.queries, j.events); err != nil {
		t.Fatalf("untouched journal: %v", err)
	}
	if _, err := replayCheck(j.path, j.queries+1, j.events); err == nil {
		t.Fatal("replay check accepted a journal missing a served query")
	}
	tamperQuery(t, j.path)
	_, err = replayCheck(j.path, j.queries, j.events)
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("tampered journal: got %v, want a divergence", err)
	}
}

func TestDigestCheck(t *testing.T) {
	var pinned map[string]simDigest
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		t.Fatal(err)
	}
	for name := range workloads {
		d, ok := pinned[name]
		if !ok {
			t.Fatalf("pinned.json has no digest for %s", name)
		}
		if len(d.Sweeps) != len(sweepModels) {
			t.Errorf("%s: pinned sweeps %v, want one per model %v", name, d.Sweeps, sweepModels)
		}
		if err := checkDigest(name, pinnedSeed, d); err != nil {
			t.Errorf("%s: pinned digest rejected: %v", name, err)
		}
		d.Rounds.Successes++
		if err := checkDigest(name, pinnedSeed, d); err == nil {
			t.Errorf("%s: a changed round counter passed", name)
		}
		if err := checkDigest(name, unpinnedSeed, d); err != nil {
			t.Errorf("%s: unpinned seed checked: %v", name, err)
		}
	}
}

// rssWorkload is the workload TestPeakRSSNotInherited runs at a size.
func rssWorkload(size string) workload {
	w := tiny(workloads["small"])
	nodes := map[string]int{"large": 10_000, "small": 500}[size]
	w.serveNodes, w.simProfile = nodes, benchnet.Profile(nodes)
	return w
}

// TestMain lets TestPeakRSSNotInherited re-run this binary as a workload
// process, the way run.py runs the harness.
func TestMain(m *testing.M) {
	if size := os.Getenv("PERFBENCH_RSS_CHILD"); size != "" {
		rep, err := run("small", rssWorkload(size), unpinnedSeed, 3*time.Second, false, os.Getenv("PERFBENCH_RSS_DIR"))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(rep.Metrics["rss_peak_mb"].Value)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestPeakRSSNotInherited runs a small workload after a large one, each in
// its own process as the benchmark runs them: the small one's peak must be
// its own, not the large one's high-water mark.
func TestPeakRSSNotInherited(t *testing.T) {
	peak := func(size string) float64 {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "PERFBENCH_RSS_CHILD="+size, "PERFBENCH_RSS_DIR="+t.TempDir())
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s workload: %v", size, err)
		}
		fields := strings.Fields(string(out))
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("%s workload printed %q", size, out)
		}
		return v
	}
	b := peak("large")
	s := peak("small")
	t.Logf("peak RSS: large %.1f MB, small run after it %.1f MB", b, s)
	if s >= 0.7*b {
		t.Errorf("small workload peak %.1f MB is within 30%% of the large one's %.1f MB: inherited", s, b)
	}
}
