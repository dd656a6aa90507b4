package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// timing is reported at the requested percentile only when the sample
// supports it, and otherwise at the highest percentile that does.
const minTail = 10

// tailRank returns the index into n ascending samples of the q-quantile
// under the nearest-rank rule, lowered until at least minTail samples lie
// beyond it. With fewer than minTail+1 samples no percentile qualifies and
// the smallest sample is returned.
func tailRank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	i = min(i, n-1-minTail)
	return max(i, 0)
}

// percentile returns the q-quantile of xs under the minTail rule, or NaN
// for an empty sample. xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	return xs[tailRank(len(xs), q)]
}

// median is the plain middle value (mean of the two middle ones for an even
// count), or NaN for an empty sample. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// perWorld holds timings of like work, one list per world it ran on.
type perWorld [][]int64

// typical is a run's figure for repeated timings of like work, scaled by k:
// each world's median, averaged over the worlds, so that every world counts
// alike however many timings it gave. It is NaN when no world has a timing.
func (p perWorld) typical(k float64) float64 {
	var sum float64
	n := 0
	for _, w := range p {
		if len(w) > 0 {
			sum += median(scaled(w, k))
			n++
		}
	}
	return sum / float64(n)
}

// durMs converts nanosecond durations to milliseconds.
func durMs(ns []int64) []float64 { return scaled(ns, 1e-6) }

func scaled(ns []int64, k float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) * k
	}
	return out
}

// span is one recorded interval of the traced run: a call into a layer,
// timed from the harness. Parent is the index of the enclosing span on the
// same track, or -1.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// track records the spans of one goroutine. A nil track records nothing,
// which is how the untraced run skips tracing at the cost of a nil check.
type track struct {
	base  time.Time
	spans []span
	open  []int
}

func newTrack(base time.Time) *track { return &track{base: base} }

// begin opens a span nested in the innermost open one and returns its index.
func (t *track) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.base).Nanoseconds()})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span i (the innermost open one) and returns its duration.
func (t *track) end(i int) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[i]
	s.Dur = time.Since(t.base).Nanoseconds() - s.Start
	t.open = t.open[:len(t.open)-1]
	return time.Duration(s.Dur)
}

// selfTimes returns each span's duration minus the part of it covered by
// its direct children — the layer's own time.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.Dur
		if s.Parent >= 0 {
			self[s.Parent] -= s.Dur
		}
	}
	return self
}

// remainder is a derived layer time: a whole call minus the parts measured
// separately on the same state. It can dip below zero when the parts run
// faster on their own than inside the whole; it is reported as measured.
func remainder[T int64 | float64](whole T, parts ...T) T {
	for _, p := range parts {
		whole -= p
	}
	return whole
}

// spanCostNs measures what one begin/end pair costs, so the traced run can
// state its own overhead.
func spanCostNs() float64 {
	const n = 100_000
	t := newTrack(time.Now())
	t.spans = make([]span, 0, n)
	start := time.Now()
	for range n {
		t.end(t.begin("calibrate"))
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MiB. Every
// workload runs in a fresh process, so the mark is that workload's own:
// package-level arena pools keep memory resident across workloads, so no
// in-process reset could give a later workload a clean window.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmHWM:"):])
		if len(fields) == 0 {
			break
		}
		kb, err := strconv.ParseFloat(string(fields[0]), 64)
		if err != nil {
			return 0, fmt.Errorf("read peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM line in /proc/self/status")
}

// pacer releases an open-loop schedule on time. Go's timers round short
// sleeps up to a millisecond when the process is idle, and spinning all the
// way to each due time takes a processor from the engine's writer, so the
// pacer sleeps with nanosleep on a thread whose timer slack is 1 ns until
// spin before the due time and busy-waits only that last stretch. The spin
// hides the wake-up latency of an idle processor. Use it from a single
// goroutine that has called lockThread.
type pacer struct {
	start time.Time
	spin  int64 // ns
}

// maxSpin bounds the busy-wait before each due time; at high rates the
// pacer spins at most a quarter of the mean gap between requests.
const maxSpin = 40 * time.Microsecond

func newPacer(meanGap time.Duration) *pacer {
	return &pacer{start: time.Now(), spin: int64(min(maxSpin, meanGap/4))}
}

// lockThread pins the calling goroutine to its OS thread and sets that
// thread's timer slack to 1 ns. The thread is not unlocked: it exits with
// the goroutine, taking the changed slack with it.
func lockThread() {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
}

// now is the pacer clock: nanoseconds since the schedule started.
func (p *pacer) now() int64 { return time.Since(p.start).Nanoseconds() }

// wait blocks until due and returns how late it returned (never negative).
func (p *pacer) wait(due int64) int64 {
	now := p.now()
	if d := due - now - p.spin; d > 0 {
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep; the spin below still waits
		now = p.now()
	}
	for now < due {
		now = p.now()
	}
	return now - due
}
