package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"autorte/internal/obs"
	"autorte/internal/par"
)

// instr is a phase's instrumentation. The zero value is the untraced
// run: every method is a cheap no-op and workloads skip all counting
// but the few tallies layerCounts names.
type instr struct {
	tr   *obs.Tracer
	reg  *obs.Registry
	name string
	root *obs.Span

	// The shared pool's counters at the start and end of the traced
	// phase (the end-of-run checks also use the pool).
	parBase, parEnd map[string]float64
	c               layerCounts
}

// layerCounts accumulates a phase's work counts. Most are counted in the
// traced phase only; the request CPU time, drive's simulated time and
// verify's verdict mix are tallied in every phase for the run log.
type layerCounts struct {
	cpuNS, simNS int64

	simEvents, activations, e2eChecks, traceRecords uint64

	rtaHits, rtaMisses, canHits, canMisses, frHits, frMisses uint64
	moves, accepted                                          uint64
	reused, recomputed                                       uint64

	imports, verifies, reverifies  int
	admissible, chains, chainErrs  int
	importNs, verifyNs, reverifyNs int64
	stageNs                        map[string]int64
}

// The pipeline stages core.Pipeline times (pipeline_stage_duration_ns).
var pipelineStages = []string{"setup", "tasksets", "ecu", "bus", "contracts", "chain"}

func newInstr(workload string) *instr {
	in := &instr{tr: obs.NewTracer(), reg: obs.NewRegistry(), name: workload}
	in.c.stageNs = map[string]int64{}
	par.Observe(in.reg)
	in.parBase = samples(in.reg)
	return in
}

func (in *instr) traced() bool { return in.tr != nil }

// begin opens the request's root span; workloads hang one child span per
// public call under it.
func (in *instr) begin() { in.root = in.tr.Start(in.name + " request") }

func (in *instr) end() {
	in.root.End()
	in.root = nil
}

// span opens a child span of the current request (nil when untraced).
func (in *instr) span(name string) *obs.Span { return in.tr.StartChild(in.root, name) }

// stages adds one pipeline's stage-duration histogram sums.
func (in *instr) stages(reg *obs.Registry) {
	for _, s := range reg.Snapshot() {
		if s.Name != "pipeline_stage_duration_ns" {
			continue
		}
		for _, l := range s.Labels {
			if l.Key == "stage" {
				in.c.stageNs[strings.TrimPrefix(l.Value, "verify/")] += s.Sum
			}
		}
	}
}

// writeChrome writes every span the traced phase recorded, once.
func (in *instr) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, in.tr.ChromeEvents()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// samples flattens a registry's counters and gauges by name.
func samples(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, s := range reg.Snapshot() {
		out[s.Name] += s.Value
	}
	return out
}

// Modules the CPU profile is folded into, besides "runtime" (samples
// with no autorte frame: GC workers, scheduler) and "bench" (the
// benchmark's own code). Internal packages not listed fold into "other".
var cpuModules = []string{
	"sim", "osek", "rte", "com", "e2eprot", "can", "flexray", "trace", "obs",
	"health", "fault", "par", "sched", "deploy", "core", "model", "experiments",
	"taskset", "e2e", "vfb", "contract", "flight", "workload",
}

// foldProfile folds a CPU profile by module with `go tool pprof
// -traces`: each sample is charged to the innermost autorte/internal
// package on its stack (standard-library and runtime frames count for
// the module that called them), to "bench" when the benchmark's own code
// comes first, and to "runtime" when no such frame exists. Returns each
// module's share of all samples.
func foldProfile(path string) (map[string]float64, error) {
	goBin := os.Getenv("PERFBENCH_GO")
	if goBin == "" {
		goBin = "go"
	}
	cmd := exec.Command(goBin, "tool", "pprof", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return foldTraces(out)
}

// foldTraces parses pprof's -traces text.
func foldTraces(text []byte) (map[string]float64, error) {
	known := map[string]bool{"runtime": true, "bench": true, "other": true}
	for _, m := range cpuModules {
		known[m] = true
	}
	byModule := map[string]float64{}
	total := 0.0
	var value float64
	module := ""
	inSample := false
	flush := func() {
		if inSample {
			if module == "" {
				module = "runtime"
			}
			byModule[module] += value
			total += value
		}
		inSample, module = false, ""
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSample = true
			value = -1
			continue
		}
		if !inSample {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		frame := fields[0]
		if value < 0 {
			v, err := parseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("unexpected pprof sample line %q", line)
			}
			value, frame = v, fields[1]
		}
		if module != "" {
			continue
		}
		switch {
		case strings.HasPrefix(frame, "main."):
			module = "bench"
		case strings.HasPrefix(frame, "autorte/internal/"):
			m := strings.TrimPrefix(frame, "autorte/internal/")
			if i := strings.IndexAny(m, "./"); i >= 0 {
				m = m[:i]
			}
			if !known[m] {
				m = "other"
			}
			module = m
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	for _, m := range sortedKeys(byModule) {
		if total > 0 {
			shares[m] = byModule[m] / total
		}
	}
	return shares, nil
}

// parseDuration reads pprof's sample values ("10ms", "1.50s", "250us").
func parseDuration(s string) (float64, error) {
	s = strings.Replace(s, "µs", "us", 1)
	d, err := time.ParseDuration(s)
	if err == nil {
		return float64(d), nil
	}
	return strconv.ParseFloat(s, 64)
}

// layerMetrics fills the traced run's per-module metrics.
func layerMetrics(res *result, in *instr, ph phase, shares map[string]float64, micro map[string]float64) {
	c := in.c
	reqs := math.Max(1, float64(ph.requests))
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	perReq := func(name string, v uint64) { put(name, "count/req", float64(v)/reqs) }
	msPer := func(ns int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / 1e6 / float64(n)
	}
	hit := func(h, m uint64) float64 { return ratio(float64(h), float64(h+m)) }

	perReq("sim.events", c.simEvents)
	perReq("osek.activations", c.activations)
	perReq("e2eprot.checks", c.e2eChecks)
	perReq("trace.records", c.traceRecords)
	put("can.cache_hit_ratio", "ratio", hit(c.canHits, c.canMisses))
	put("flexray.synth_cache_hit_ratio", "ratio", hit(c.frHits, c.frMisses))
	put("sched.cache_hit_ratio", "ratio", hit(c.rtaHits, c.rtaMisses))
	perReq("deploy.moves", c.moves)
	put("deploy.accept_ratio", "ratio", ratio(float64(c.accepted), float64(c.moves)))
	put("core.reuse_ratio", "ratio", hit(c.reused, c.recomputed))
	put("model.import_ms", "ms", msPer(c.importNs, c.imports))
	put("core.verify_ms", "ms", msPer(c.verifyNs, c.verifies))
	put("core.reverify_ms", "ms", msPer(c.reverifyNs, c.reverifies))
	// The verdict mix of the verified vehicles: a share of chains that end
	// in an analysis error means part of the stream times an early exit.
	put("core.admissible_ratio", "ratio", ratio(float64(c.admissible), float64(c.verifies)))
	put("core.chain_error_ratio", "ratio", ratio(float64(c.chainErrs), float64(c.chains)))
	for _, s := range pipelineStages {
		put("core.stage_ms."+s, "ms", msPer(c.stageNs[s], c.verifies))
	}

	delta := func(name string) float64 { return in.parEnd[name] - in.parBase[name] }
	if in.name == "campaign" {
		// Every job the campaign workload puts through the shared pool is
		// one fault.RunCampaign scenario.
		put("fault.scenarios", "count/req", delta("par_jobs_total")/reqs)
	} else {
		put("fault.scenarios", "count/req", 0)
	}
	put("par.busy_workers_max", "count", in.parEnd["par_busy_workers_max"])
	put("par.queue_wait_ms", "ms", delta("par_queue_wait_ns_total")/1e6/reqs)
	put("runtime.gc_cycles", "count/req", float64(ph.gcCycles)/reqs)

	for _, m := range append(append([]string{}, cpuModules...), "runtime", "bench", "other") {
		put(m+".cpu_share", "ratio", shares[m])
	}
	for _, name := range sortedKeys(micro) {
		put(name, microUnit(name), micro[name])
	}
}

func microUnit(name string) string {
	if strings.HasSuffix(name, "_ms") {
		return "ms"
	}
	return "ns"
}
