package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"autorte/internal/model"
)

// stream is one named workload: a request stream and its checks.
type stream interface {
	// setup generates the inputs from the seed and prepares everything the
	// requests run against. It may run several times; the last set-up is
	// the one measured.
	setup() error
	// request issues request i (the timed part) and returns the input it
	// ran on and its output, which the harness digests untimed; a nil
	// output means the output is judged in settle instead.
	request(i int, in *instr) (input int, out any, err error)
	// twin repeats request i's work on identical state, untraced, and
	// returns its input: the paired run wall_ratio_1cpu times on one CPU.
	twin(i int) (input int, err error)
	// settle runs untimed after every request and its twin: bookkeeping
	// and checks that must not count towards latency (drive closes a
	// vehicle's horizon).
	settle(l *ledger, in *instr) error
	// finish runs after the measured loop with its instrumentation:
	// end-of-run invariants and the run log.
	finish(l *ledger, in *instr) error
	// reference recomputes input's output digest from scratch with the
	// given worker count: the golden digest and the 1-vs-n check.
	reference(input, workers int) (string, error)
	// parallel reports whether the output may depend on the worker count
	// (and so gets the 1-vs-n check).
	parallel() bool
	// golden reports whether the default seed's outputs are pinned by
	// golden.json.
	golden() bool
	inputs() int
	// vehicles returns the workload's own vehicles; the unit micro tier
	// runs on the first buildable CAN- and FlexRay-backbone ones.
	vehicles() []*model.System
}

// liveHeaper is implemented by workloads that measure their live heap
// at a point of their own choosing (drive: end of each horizon).
type liveHeaper interface {
	liveHeapMB() (float64, bool)
}

// inputState is what the run learned about one input.
type inputState struct {
	requests int
	digest   string
	bad      string
}

// ledger collects request outcomes: a request fails when it errors or
// when its input's output is judged wrong by any check.
type ledger struct {
	in      []inputState
	errored int
	first   error
}

func newLedger(n int) *ledger { return &ledger{in: make([]inputState, n)} }

// record notes one request on input with its output digest; a digest
// differing from the input's earlier one is a failure (outputs are
// deterministic per input).
func (l *ledger) record(input int, digest string) {
	s := &l.in[input]
	s.requests++
	l.setDigest(input, digest)
}

// setDigest records input's output digest without counting a request.
func (l *ledger) setDigest(input int, digest string) {
	s := &l.in[input]
	switch {
	case digest == "":
	case s.digest == "":
		s.digest = digest
	case s.digest != digest:
		l.fail(input, "output differs between repeats of the same input")
	}
}

func (l *ledger) fail(input int, reason string) {
	if l.in[input].bad == "" {
		l.in[input].bad = reason
	}
}

func (l *ledger) requestErr(err error) {
	l.errored++
	if l.first == nil {
		l.first = err
	}
}

func (l *ledger) attempted() int {
	n := l.errored
	for _, s := range l.in {
		n += s.requests
	}
	return n
}

func (l *ledger) failed() int {
	n := l.errored
	for _, s := range l.in {
		if s.bad != "" {
			n += s.requests
		}
	}
	return n
}

// phase is the outcome of one measured loop.
type phase struct {
	latMS []float64
	cpuMS []float64
	// wallRatio is, per request, its wall time over that of its twin run
	// on one CPU (paired phases only).
	wallRatio  []float64
	requests   int
	allocBytes uint64
	gcCycles   uint32
}

func newWorkload(o options) (stream, error) {
	switch o.workload {
	case "drive":
		return newDrive(o), nil
	case "verify":
		return newVerify(o), nil
	case "explore":
		return newExplore(o), nil
	case "campaign":
		return newCampaign(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want drive, verify, explore or campaign)", o.workload)
}

// run executes one benchmark run and returns its result.
func run(o options) (*result, error) {
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	w, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for k := 0; k < o.setups; k++ {
		runtime.GC()
		c0 := processCPU()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, float64(processCPU()-c0)/1e9)
	}
	runtime.GC()

	l := newLedger(w.inputs())
	next := 0
	res := &result{Metrics: map[string]metric{}}
	if !o.trace {
		in := &instr{}
		ph, err := measure(w, l, &next, o.seconds, in, true, o)
		if err != nil {
			return nil, err
		}
		if err := judge(w, l, in, o); err != nil {
			return nil, err
		}
		endToEnd(res, ph, setups)
		res.samples = len(ph.cpuMS)
	} else {
		// Untraced first half, traced second half from a fresh set-up, so
		// both halves replay the same request sequence: the per-module
		// metrics come from the second, the overhead is their p50 ratio.
		plain, err := measure(w, l, &next, o.seconds/2, &instr{}, false, o)
		if err != nil {
			return nil, err
		}
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		runtime.GC()
		next = 0
		in := newInstr(o.workload)
		if err := os.MkdirAll(o.outDir(), 0o755); err != nil {
			return nil, err
		}
		profPath := filepath.Join(o.outDir(), o.workload+".cpu.pprof")
		prof, err := os.Create(profPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return nil, err
		}
		traced, err := measure(w, l, &next, o.seconds/2, in, false, o)
		pprof.StopCPUProfile()
		in.parEnd = samples(in.reg)
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		if err := judge(w, l, in, o); err != nil {
			return nil, err
		}
		shares, err := foldProfile(profPath)
		if err != nil {
			return nil, fmt.Errorf("folding the CPU profile: %w", err)
		}
		micro, err := microTier(w, o)
		if err != nil {
			return nil, fmt.Errorf("micro tier: %w", err)
		}
		if err := in.writeChrome(filepath.Join(o.outDir(), o.workload+".trace.json")); err != nil {
			return nil, err
		}
		layerMetrics(res, in, traced, shares, micro)
		res.Metrics["runtime.live_heap_mb"] = metric{workloadLiveHeap(w), "MB"}
		// Wall-clock latency is what a user waits; on a shared host it
		// swings with co-tenant load, so it is reported here rather than
		// gated with the CPU-time percentiles.
		res.Metrics["bench.wall_p50_ms"] = metric{quantile(plain.latMS, 0.5), "ms"}
		res.Metrics["bench.wall_p90_ms"] = metric{quantile(plain.latMS, 0.9), "ms"}
		p50a, p50b := quantile(plain.cpuMS, 0.5), quantile(traced.cpuMS, 0.5)
		res.Metrics["bench.trace_overhead"] = metric{ratio(p50b, p50a), "ratio"}
		res.samples = len(plain.latMS)
		fmt.Fprintf(o.log, "%s: untraced CPU p50 %.4f ms (n=%d), traced CPU p50 %.4f ms (n=%d, %d spans), overhead %.3fx\n",
			o.workload, p50a, len(plain.cpuMS), p50b, len(traced.cpuMS), in.tr.Len(), ratio(p50b, p50a))
	}
	res.Attempted = l.attempted()
	res.Failed = l.failed()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for i, s := range l.in {
		if s.bad != "" {
			fmt.Fprintf(o.log, "%s: input %d wrong (%d requests): %s\n", o.workload, i, s.requests, s.bad)
		}
	}
	if l.first != nil {
		fmt.Fprintf(o.log, "%s: %d requests errored, first: %v\n", o.workload, l.errored, l.first)
	}
	return res, nil
}

// measure runs the closed loop for the given wall time. A paired phase
// runs every request's twin too, on one CPU, alternately just before and
// just after the request so that neither order is favoured; the twins'
// time and allocations are left out of the phase's figures.
func measure(w stream, l *ledger, next *int, seconds float64, in *instr, paired bool, o options) (phase, error) {
	var ph phase
	var before, after runtime.MemStats
	var twinAlloc uint64
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		i := *next
		*next++
		var twinMS float64
		var twinBytes uint64
		if paired && i%2 == 0 {
			twinMS, twinBytes = runTwin(w, l, i)
		}
		in.begin()
		c0 := processCPU()
		t0 := time.Now()
		input, out, err := w.request(i, in)
		el := time.Since(t0)
		c1 := processCPU()
		in.end()
		ph.requests++
		ph.latMS = append(ph.latMS, float64(el.Nanoseconds())/1e6)
		ph.cpuMS = append(ph.cpuMS, float64(c1-c0)/1e6)
		in.c.cpuNS += c1 - c0
		if paired && i%2 == 1 {
			twinMS, twinBytes = runTwin(w, l, i)
		}
		twinAlloc += twinBytes
		if twinMS > 0 {
			ph.wallRatio = append(ph.wallRatio, float64(el.Nanoseconds())/1e6/twinMS)
		}
		if err != nil {
			l.requestErr(err)
			continue
		}
		digest, err := digestOf(out)
		if err != nil {
			return ph, err
		}
		if o.corrupt && i == 0 && digest != "" {
			digest = "corrupted:" + digest
		}
		l.record(input, digest)
		if err := w.settle(l, in); err != nil {
			return ph, err
		}
	}
	runtime.ReadMemStats(&after)
	ph.allocBytes = after.TotalAlloc - before.TotalAlloc - twinAlloc
	ph.gcCycles = after.NumGC - before.NumGC
	return ph, nil
}

// runTwin runs request i's twin with GOMAXPROCS 1 and returns its wall
// time in ms and the bytes it allocated. A twin counts as a request.
func runTwin(w stream, l *ledger, i int) (float64, uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	prev := runtime.GOMAXPROCS(1)
	t0 := time.Now()
	input, err := w.twin(i)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	runtime.GOMAXPROCS(prev)
	runtime.ReadMemStats(&m1)
	if err != nil {
		l.requestErr(fmt.Errorf("twin: %w", err))
	} else {
		l.record(input, "")
	}
	return ms, m1.TotalAlloc - m0.TotalAlloc
}

// judge runs the end-of-run checks: the workload's invariants, the
// 1-vs-n worker comparison and, at the default seed, the golden digests.
func judge(w stream, l *ledger, in *instr, o options) error {
	if err := w.finish(l, in); err != nil {
		return err
	}
	if w.parallel() {
		// Every input the run touched is recomputed on one worker, up to a
		// cap that keeps the check cheap next to the measured loop.
		checked := 0
		for i := range l.in {
			if l.in[i].digest == "" || checked == 32 {
				continue
			}
			checked++
			d, err := w.reference(i, 1)
			if err != nil {
				l.fail(i, fmt.Sprintf("single-worker reference: %v", err))
			} else if d != l.in[i].digest {
				l.fail(i, "output differs between 1 and n workers")
			}
		}
	}
	if !w.golden() || o.seed != defaultSeed || o.scale != 1 {
		return nil
	}
	golden, err := loadGolden(o.goldenPath())
	if err != nil {
		return err
	}
	want := golden[o.workload]
	if len(want) != w.inputs() {
		return fmt.Errorf("golden file %s holds %d digests for %s, want %d (regenerate with -write-golden)", o.goldenPath(), len(want), o.workload, w.inputs())
	}
	for i := range l.in {
		if l.in[i].digest != "" && l.in[i].digest != want[i] {
			l.fail(i, "output differs from the golden digest")
		}
	}
	return nil
}

// endToEnd fills the untraced run's metrics. The CPU-time percentiles
// cannot see parallel efficiency: work moved from n workers onto one
// costs the same CPU while the caller waits longer. wall_ratio_1cpu is
// the figure that does: each request's wall-clock time over that of its
// twin on one CPU, median over the pairs — 1 when the extra CPUs buy
// nothing, 1/n at perfect use of n. Pairing each request with its twin
// cancels most of the host's varying load, which moves wall time itself
// by 15% and more between runs.
func endToEnd(res *result, ph phase, setups []float64) {
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["cpu_p50_ms"] = metric{quantile(ph.cpuMS, 0.5), "ms"}
	res.Metrics["cpu_p90_ms"] = metric{quantile(ph.cpuMS, 0.9), "ms"}
	res.Metrics["wall_ratio_1cpu"] = metric{median(ph.wallRatio), "ratio"}
	res.Metrics["alloc_mb_per_req"] = metric{float64(ph.allocBytes) / 1e6 / math.Max(1, float64(ph.requests)), "MB"}
}

// workloadLiveHeap is the workload's retained heap: the drive
// workload's mean at the end of each horizon, else the heap left after
// the measured loop.
func workloadLiveHeap(w stream) float64 {
	if lh, ok := w.(liveHeaper); ok {
		if v, ok := lh.liveHeapMB(); ok {
			return v
		}
	}
	return liveHeapMB()
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / math.Max(1, float64(len(xs)))
}

// liveHeapMB is the heap still reachable after two collections (the
// second empties the sync.Pool victim caches the first leaves behind).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// processCPU is the process's user+system CPU time in ns.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
