// Command perfbench is the repository benchmark for the trust engine. One
// invocation runs one workload in-process and prints, as the last line of
// standard output, a JSON object with the keys correct, attempted, failed
// and metrics: the end-to-end metrics with -trace 0, the per-layer metrics
// with -trace 1. BENCHMARK.json at the repository root names the workloads
// and metrics; METRICS.md beside this file says which end-to-end metric each
// per-layer metric should move.
//
// Every workload runs the same three phases over worlds built from -seed:
//
//  1. serve, open loop: siot-serve's deployed engine (aggressive model,
//     republish every 256 events or 1 s, group-commit fsync to a real file)
//     receives queries and ingests on a fixed schedule from one pacing
//     goroutine; every request is timed from its due time;
//  2. serve, closed loop: one issuer sends fixed batches of queries;
//  3. simulation, serial: cycles of ten delegation rounds and one
//     transitivity sweep per registered trust model.
//
// Each end-to-end timing is a median over many timings of like work spread
// over the run (query batches, rounds, sweeps), taken per world and
// averaged over the run's worlds. The open loop's latencies, which the
// host's other load moves far more than the program, are per-layer figures.
//
// Outside the measured window it replays the serving journal with
// serve.Replay (every served value must reproduce bit-for-bit) and, for the
// pinned seed, checks the first simulation cycle against pinned.json.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload small --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"siot/internal/benchnet"
	"siot/internal/socialgen"
)

// workload is one traffic mix over one served world size and one simulated
// population.
type workload struct {
	serveNodes int               // the served world: serve.Config{Nodes}
	simProfile socialgen.Profile // the simulated population
	queryQPS   float64           // open-loop query rate
	ingestPS   float64           // open-loop ingest rate
	openShare  float64           // share of the window for the open loop; the simulation gets the rest
	// serveWorlds engines are served and simWorlds populations built in
	// turn, each from its own seed derived from -seed; every build is a
	// set-up repetition. Pooling several worlds keeps one unusual world
	// from setting a run's figures. The first playWorlds populations play
	// the cycles.
	serveWorlds           int
	simWorlds, playWorlds int
}

// minCycles is how many simulation cycles each population plays even past
// the window, so every sweep also runs once on a state the rounds evolved.
const minCycles = 2

// The workloads: one whose worlds fit in cache and one whose do not. Every
// workload prints every metric, so each serves and simulates. small reads:
// a 10k served world at 30k queries/s, where search and the journaled query
// path do the work, and a 10k population. large writes and simulates the
// paper's Net100k: a 50k served world at 240 ingests/s, where apply, fsync,
// capture and memo do the work, and the 100k population, where capture,
// memo and search dominate rounds and sweeps. A served 100k world (800k
// edges) builds an epoch in ~400 ms and keeps the writer half busy even at
// the 1 s timer's cadence, so large serves 50k.
var workloads = map[string]workload{
	"small": {
		serveNodes: 10_000, simProfile: benchnet.Profile(10_000),
		queryQPS: 30_000, ingestPS: 100,
		openShare: 0.3, serveWorlds: 12, simWorlds: 3, playWorlds: 3,
	},
	"large": {
		serveNodes: 50_000, simProfile: benchnet.Net100k(),
		queryQPS: 5_000, ingestPS: 240,
		openShare: 0.3, serveWorlds: 8, simWorlds: 2, playWorlds: 1,
	},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: small or large")
	seed := flag.Uint64("seed", pinnedSeed, "workload seed")
	seconds := flag.Int("seconds", 30, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the journal and the trace")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %v), -seconds >= 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	rep, err := run(*name, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for k, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has no value; lengthen -seconds\n", k)
			os.Exit(1)
		}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// gcWindow is a snapshot of the Go runtime's cumulative GC counters.
type gcWindow struct {
	cycles           uint32
	pauseNs, alloced uint64
}

func gcNow() gcWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcWindow{cycles: ms.NumGC, pauseNs: ms.PauseTotalNs, alloced: ms.TotalAlloc}
}

func (a gcWindow) to(b gcWindow) gcWindow {
	return gcWindow{cycles: b.cycles - a.cycles, pauseNs: b.pauseNs - a.pauseNs, alloced: b.alloced - a.alloced}
}

func (a gcWindow) plus(b gcWindow) gcWindow {
	return gcWindow{cycles: a.cycles + b.cycles, pauseNs: a.pauseNs + b.pauseNs, alloced: a.alloced + b.alloced}
}

// run executes one workload and returns its report. A failed correctness
// check yields a report with Correct false; an error means the run could
// not be carried out at all.
func run(name string, w workload, seed uint64, window time.Duration, traced bool, workdir string) (*report, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	base := time.Now()
	var tr *track
	if traced {
		tr = newTrack(base)
	}

	openDur := time.Duration(float64(window) * w.openShare)
	sv, err := runServe(w, seed, openDur, dir, tr)
	if err != nil {
		return nil, fmt.Errorf("serve phase: %w", err)
	}
	runtime.GC()
	sm, err := runSim(w, seed, window-time.Since(base), tr)
	if err != nil {
		return nil, fmt.Errorf("simulation phase: %w", err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	gc := sv.gc.plus(sm.gc)

	rep := &report{Correct: true, Metrics: map[string]metric{}}
	rep.Attempted = sv.queries + sv.ingests + sm.rounds + sm.sweeps
	rep.Failed = sv.failed
	check := func(what string, err error) {
		rep.Attempted++
		if err != nil {
			rep.Failed++
			rep.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s check failed: %v\n", what, err)
		}
	}

	var replayTook time.Duration
	for _, j := range sv.journals {
		sp := tr.begin("serve.Replay")
		took, err := replayCheck(j.path, j.queries, j.events)
		tr.end(sp)
		replayTook += took
		check("journal replay", err)
	}
	check("simulation digest", checkDigest(name, seed, sm.digest))
	digest, _ := json.Marshal(sm.digest)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d first-cycle digest %s\n", name, seed, digest)
	fmt.Fprintf(os.Stderr, "perfbench: query mix neighbor %.4f, two-hop %.4f, random %.4f; %d open-loop and %d batched queries, %d ingests, %d rounds, %d sweeps\n",
		sv.shares[kindNeighbor], sv.shares[kindTwoHop], sv.shares[kindRandom],
		sv.queries-sv.batchQueries, sv.batchQueries, sv.ingests, sm.rounds, sm.sweeps)

	if !traced {
		endToEnd(rep.Metrics, sv, sm, rss)
		return rep, nil
	}
	var jb journalBytes
	for _, j := range sv.journals {
		b, err := measureJournal(j.path)
		if err != nil {
			return nil, err
		}
		jb = jb.plus(b)
	}
	perLayer(rep.Metrics, sv, sm, gc, jb, replayTook)
	check("identical-world search", sv.searchErr)
	check("sweep decomposition", sm.decompErr)
	windowNs := float64(time.Since(base).Nanoseconds())
	rep.Metrics["trace.spans"] = metric{float64(len(tr.spans)), "count"}
	rep.Metrics["trace.overhead_pct"] = metric{
		100 * (float64(len(tr.spans))*spanCostNs() + float64(len(sv.trustSvcNs))*clockCostNs()) / windowNs, "%"}
	rep.Metrics["trace.query_us"] = metric{sv.batchNs.typical(1e-3 / batchSize), "us"}
	rep.Metrics["trace.round_ms"] = metric{sm.roundNs.typical(1e-6), "ms"}
	if err := writeTrace(filepath.Join(workdir, fmt.Sprintf("trace-%s-seed%d.json", name, seed)), tr, sv); err != nil {
		return nil, err
	}
	return rep, nil
}

// endToEnd fills the metrics a user of the engine sees.
func endToEnd(m map[string]metric, sv *serveResult, sm *simResult, rss float64) {
	simSetup := make([]float64, len(sm.generateNs))
	for i := range simSetup {
		simSetup[i] = float64(sm.generateNs[i]+sm.populateNs[i]+sm.seedNs[i]) * 1e-9
	}
	m["setup_s"] = metric{median(scaled(sv.setupNs, 1e-9)) + median(simSetup), "s"}
	m["rss_peak_mb"] = metric{rss, "MB"}
	m["visibility_p50_ms"] = metric{percentile(durMs(sv.visibilityNs), 0.50), "ms"}
	m["query_us"] = metric{sv.batchNs.typical(1e-3 / batchSize), "us"}
	m["round_ms"] = metric{sm.roundNs.typical(1e-6), "ms"}
	for _, name := range sweepModels {
		m["sweep_ms."+name] = metric{sm.sweepNs[name].typical(1e-6), "ms"}
	}
}

// perLayer fills the traced run's metrics of single layers.
func perLayer(m map[string]metric, sv *serveResult, sm *simResult, gc gcWindow, jb journalBytes, replay time.Duration) {
	m["socialgen.generate_s"] = metric{median(scaled(sm.generateNs, 1e-9)), "s"}
	m["sim.populate_s"] = metric{median(scaled(sm.populateNs, 1e-9)), "s"}
	m["sim.seed_s"] = metric{median(scaled(sm.seedNs, 1e-9)), "s"}
	m["sim.round_rest_ms"] = metric{median(durMs(sm.roundRestNs)), "ms"}
	m["core.capture_ms"] = metric{median(durMs(sm.captureNs)), "ms"}
	m["core.view_records"] = metric{float64(sm.viewRecords), "count"}
	for _, name := range sweepModels {
		m["sim.sweep_rest_ms."+name] = metric{median(durMs(sm.sweepRestNs[name])), "ms"}
		m["core.memo_ms."+name] = metric{median(durMs(sm.memoNs[name])), "ms"}
		m["core.search_ms."+name] = metric{median(durMs(sm.searchNs[name])), "ms"}
		m["core.inquired."+name] = metric{float64(sm.inquired[name]), "count"}
	}
	// The open-loop latencies are set by how the scheduler shares the host's
	// processors, and the ack median by the latency of one fsync on the
	// host's disk; all vary between runs far beyond any usable bound, so
	// they are reported here, unbounded.
	m["serve.query_p50_us"] = metric{percentile(scaled(sv.queryLatNs, 1e-3), 0.50), "us"}
	m["serve.query_p99_us"] = metric{percentile(scaled(sv.queryLatNs, 1e-3), 0.99), "us"}
	m["serve.ingest_ack_p50_ms"] = metric{percentile(durMs(sv.ackLatNs), 0.50), "ms"}
	m["serve.ingest_ack_p99_ms"] = metric{percentile(durMs(sv.ackLatNs), 0.99), "ms"}
	searchP50 := percentile(scaled(sv.searchNs, 1e-3), 0.50)
	trustP50 := percentile(scaled(sv.trustSvcNs, 1e-3), 0.50)
	m["core.search_us_p50"] = metric{searchP50, "us"}
	m["core.search_us_p99"] = metric{percentile(scaled(sv.searchNs, 1e-3), 0.99), "us"}
	m["serve.trust_us_p50"] = metric{trustP50, "us"}
	m["serve.trust_us_p99"] = metric{percentile(scaled(sv.trustSvcNs, 1e-3), 0.99), "us"}
	m["serve.query_overhead_us"] = metric{remainder(trustP50, searchP50), "us"}
	m["serve.ingest_call_ms_p50"] = metric{percentile(durMs(sv.ingestCallNs), 0.50), "ms"}
	m["serve.ingest_call_ms_p99"] = metric{percentile(durMs(sv.ingestCallNs), 0.99), "ms"}
	m["serve.fsync_p99_us"] = metric{float64(sv.fsyncP99Ns) * 1e-3, "us"}
	m["serve.epochs"] = metric{float64(sv.openEpochs), "count"}
	m["serve.epoch_build_ms"] = metric{float64(sv.epochBuildNs) * 1e-6, "ms"}
	m["serve.epoch_gap_ms"] = metric{float64(sv.openNs) * 1e-6 / float64(sv.openEpochs), "ms"}
	m["serve.queue_depth_max"] = metric{float64(sv.queueDepthMax), "count"}
	m["serve.journal_bytes_per_query"] = metric{float64(jb.queryBytes) / float64(max(jb.queryLines, 1)), "B"}
	m["serve.journal_bytes_per_event"] = metric{float64(jb.eventBytes) / float64(max(jb.eventLines, 1)), "B"}
	open := len(sv.trustSvcNs)
	m["serve.found_share"] = metric{float64(sv.found) / float64(max(open, 1)), "ratio"}
	m["serve.direct_share"] = metric{float64(sv.direct) / float64(max(open, 1)), "ratio"}
	m["serve.shed"] = metric{float64(sv.shed), "count"}
	m["serve.replay_s"] = metric{replay.Seconds(), "s"}
	m["gen.lag_p50_us"] = metric{percentile(scaled(sv.lagNs, 1e-3), 0.50), "us"}
	m["gen.lag_p99_us"] = metric{percentile(scaled(sv.lagNs, 1e-3), 0.99), "us"}
	m["runtime.gc_cycles"] = metric{float64(gc.cycles), "count"}
	m["runtime.gc_pause_ms"] = metric{float64(gc.pauseNs) * 1e-6, "ms"}
	m["runtime.alloc_mb"] = metric{float64(gc.alloced) / (1 << 20), "MB"}
}

// clockCostNs measures one monotonic clock read, the extra work the traced
// run adds to each open-loop query.
func clockCostNs() float64 {
	const n = 100_000
	start := time.Now()
	var sink int64
	for range n {
		sink += time.Since(start).Nanoseconds()
	}
	_ = sink
	return float64(time.Since(start).Nanoseconds()) / n
}

// writeTrace saves the traced run's spans and the per-query service times.
func writeTrace(path string, tr *track, sv *serveResult) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Spans        []span  `json:"spans"`
		SelfNs       []int64 `json:"self_ns"`
		TrustSvcNs   []int64 `json:"trust_service_ns"`
		IngestCallNs []int64 `json:"ingest_call_ns"`
	}{tr.spans, selfTimes(tr.spans), sv.trustSvcNs, sv.ingestCallNs})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
