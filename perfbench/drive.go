package main

import (
	"fmt"
	"math"
	"strings"

	"autorte/internal/core"
	"autorte/internal/model"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/trace"
	"autorte/internal/workload"
)

// drive simulates a stream of generated vehicles, each over a horizon of
// driveSlices Platform.Run slices on one platform. The pool holds the
// seed's vehicles in pairs — the same generated vehicle once on a CAN and
// once on a FlexRay backbone — each built with E2E protection and the
// default flight recorder; a vehicle is run to its horizon before the
// next is built. A request is one slice. Slices are sized per vehicle to
// a fixed number of task activations (sliceActivations, counted from the
// model's periods), so a request is a comparable amount of simulation
// across vehicles whose event rates differ by 2x and more.
type drive struct {
	o     options
	pool  []driveVehicle
	cur   *drivePlatform
	heaps []float64
	done  int
	// corrupted records that the test-only corruption has been applied.
	corrupted bool
}

type driveVehicle struct {
	sys   *model.System
	slice sim.Duration
	// bound is each task's worst-case response time from core.Verify, on
	// ECUs the analysis found schedulable.
	bound map[string]sim.Duration
}

type drivePlatform struct {
	p      *rte.Platform
	input  int
	slices int
	tasks  []string
	// twin is a second platform of the same vehicle that the paired run
	// advances slice by slice alongside p; at the horizon its simulated
	// statistics must equal p's.
	twin       *rte.Platform
	twinSlices int
	// Traced-phase baselines for the per-request count deltas.
	events, records, activations, checks uint64
}

const (
	drivePairs       = 32
	driveSlices      = 8
	sliceActivations = 2500
)

func newDrive(o options) *drive {
	n := int(math.Round(drivePairs * o.scale))
	if n < 1 {
		n = 1
	}
	return &drive{o: o, pool: make([]driveVehicle, 2*n)}
}

func driveOptions() rte.Options { return rte.Options{E2E: &rte.E2EOptions{}} }

func (d *drive) inputs() int    { return len(d.pool) }
func (d *drive) parallel() bool { return false }
func (d *drive) golden() bool   { return true }

func (d *drive) vehicles() []*model.System {
	out := make([]*model.System, len(d.pool))
	for i, v := range d.pool {
		out[i] = v.sys
	}
	return out
}

func (d *drive) setup() error {
	for j := 0; j < len(d.pool); j += 2 {
		// A generated vehicle whose FlexRay static segment cannot hold its
		// signals is not buildable on that backbone; such a pair is
		// skipped for the next candidate, deterministically per seed.
		var skipped []string
		for c := uint64(0); ; c++ {
			if c == 16 {
				return fmt.Errorf("vehicle pair %d: no buildable candidate: %s", j/2, strings.Join(skipped, "; "))
			}
			key := uint64(j/2)<<8 | c
			err := d.candidate(j, key)
			if err == nil {
				break
			}
			skipped = append(skipped, err.Error())
		}
		if len(skipped) > 0 {
			fmt.Fprintf(d.o.log, "drive: pair %d skipped %d unbuildable candidate(s): %s\n", j/2, len(skipped), strings.Join(skipped, "; "))
		}
	}
	d.heaps, d.done, d.corrupted = nil, 0, false
	var err error
	d.cur, err = d.buildPair(0, &instr{})
	return err
}

// candidate generates vehicle key on both backbones into pool slots j
// and j+1, with each task's verified bound.
func (d *drive) candidate(j int, key uint64) error {
	for b := 0; b < 2; b++ {
		sys, err := generate(d.o.seed, key, b == 1, false)
		if err != nil {
			return err
		}
		if _, err := rte.Build(sys.Clone(), driveOptions()); err != nil {
			return err
		}
		rep, err := core.NewPipeline(d.o.workers).Verify(sys, nil, driveOptions())
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		bound := map[string]sim.Duration{}
		for _, e := range rep.ECUs {
			if !e.Schedulable {
				continue
			}
			for _, r := range e.Results {
				bound[r.Task.Name] = r.WCRT
			}
		}
		d.pool[j+b] = driveVehicle{sys: sys, slice: sliceFor(sys), bound: bound}
	}
	return nil
}

// sliceFor sizes a vehicle's slice to sliceActivations periodic task
// activations, in whole milliseconds.
func sliceFor(sys *model.System) sim.Duration {
	perSecond := 0.0
	for _, p := range periods(sys) {
		perSecond += float64(sim.Second) / float64(p)
	}
	ms := math.Round(1000 * sliceActivations / math.Max(perSecond, 1))
	return sim.Duration(math.Max(ms, 1)) * sim.Millisecond
}

// generate derives vehicle k of a workload from the seed.
func generate(seed, k uint64, flexRay, chains bool) (*model.System, error) {
	spec := workload.VehicleSpec{ChainConstraints: chains}
	if flexRay {
		spec.BusKind = model.BusFlexRay
	}
	sys, err := workload.GenerateVehicle(spec, sim.NewRand(mix(seed, k)))
	if err != nil {
		return nil, fmt.Errorf("generating vehicle %d: %w", k, err)
	}
	return sys, nil
}

func (d *drive) build(input int, in *instr) (*drivePlatform, error) {
	sp := in.span("rte.Build")
	p, err := rte.Build(d.pool[input].sys.Clone(), driveOptions())
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("vehicle %d: %w", input, err)
	}
	dp := &drivePlatform{p: p, input: input}
	for _, c := range p.Sys.Components {
		for _, r := range c.Runnables {
			if t := p.Task(c.Name, r.Name); t != nil {
				dp.tasks = append(dp.tasks, t.Name)
			}
		}
	}
	return dp, nil
}

// buildPair builds input's platform and its twin.
func (d *drive) buildPair(input int, in *instr) (*drivePlatform, error) {
	dp, err := d.build(input, in)
	if err != nil {
		return nil, err
	}
	if dp.twin, err = rte.Build(d.pool[input].sys.Clone(), driveOptions()); err != nil {
		return nil, fmt.Errorf("vehicle %d: %w", input, err)
	}
	return dp, nil
}

func (d *drive) request(_ int, in *instr) (int, any, error) {
	cur := d.cur
	slice := d.pool[cur.input].slice
	sp := in.span("rte.Platform.Run")
	cur.slices++
	cur.p.Run(sim.Time(cur.slices) * slice)
	sp.End()
	in.c.simNS += int64(slice)
	return cur.input, nil, nil
}

// twin advances the current vehicle's twin platform by the same slice.
func (d *drive) twin(int) (int, error) {
	cur := d.cur
	cur.twinSlices++
	cur.twin.Run(sim.Time(cur.twinSlices) * d.pool[cur.input].slice)
	return cur.input, nil
}

func (d *drive) settle(l *ledger, in *instr) error {
	cur := d.cur
	if in.traced() {
		events, records, act, checks := cur.counts()
		in.c.simEvents += events - cur.events
		in.c.traceRecords += records - cur.records
		in.c.activations += act - cur.activations
		in.c.e2eChecks += checks - cur.checks
		cur.events, cur.records, cur.activations, cur.checks = events, records, act, checks
	}
	if cur.slices < driveSlices {
		return nil
	}
	digest, err := digestJSON(d.judge(l, cur))
	if err != nil {
		return err
	}
	l.setDigest(cur.input, digest)
	if cur.twinSlices == cur.slices {
		twin := &drivePlatform{p: cur.twin, tasks: cur.tasks}
		if digest, err = digestJSON(twin.stats()); err != nil {
			return err
		}
		l.setDigest(cur.input, digest)
	}
	cur.twin = nil
	d.done++
	d.heaps = append(d.heaps, liveHeapMB())
	d.cur = nil
	next, err := d.buildPair((cur.input+1)%len(d.pool), in)
	if err != nil {
		return err
	}
	if in.traced() {
		next.events, next.records, next.activations, next.checks = next.counts()
	}
	d.cur = next
	return nil
}

// finish checks the partly simulated platform against the bounds too.
func (d *drive) finish(l *ledger, in *instr) error {
	if in.c.simNS > 0 {
		fmt.Fprintf(d.o.log, "drive: %d vehicles to the horizon, %.2f host CPU ms per simulated second\n",
			d.done, float64(in.c.cpuNS)/1e6/(float64(in.c.simNS)/1e9))
	}
	if d.cur != nil && d.cur.slices > 0 {
		d.judge(l, d.cur)
	}
	return nil
}

// judge checks a platform's simulated statistics against the verified
// bounds and returns them.
func (d *drive) judge(l *ledger, dp *drivePlatform) driveStats {
	st := dp.stats()
	if d.o.corrupt && !d.corrupted {
		corruptStats(&st, d.pool[dp.input].bound)
		d.corrupted = true
	}
	if msg := d.pool[dp.input].exceeds(st); msg != "" {
		l.fail(dp.input, msg)
	}
	return st
}

func (d *drive) liveHeapMB() (float64, bool) {
	if len(d.heaps) == 0 {
		return 0, false
	}
	return mean(d.heaps), true
}

// reference simulates the vehicle to the horizon on a fresh platform.
func (d *drive) reference(input, _ int) (string, error) {
	dp, err := d.build(input, &instr{})
	if err != nil {
		return "", err
	}
	for k := 1; k <= driveSlices; k++ {
		dp.p.Run(sim.Time(k) * d.pool[input].slice)
	}
	return digestJSON(dp.stats())
}

// counts reads the platform's work counters: kernel events, retained
// trace records, task activations and E2E checks.
func (dp *drivePlatform) counts() (events, records, activations, checks uint64) {
	p := dp.p
	for _, t := range dp.tasks {
		activations += uint64(p.Trace.Count(trace.Activate, t))
	}
	for _, s := range p.Metrics.Snapshot() {
		if s.Name == "e2e_checks_total" {
			checks += uint64(s.Value)
		}
	}
	return p.K.Executed(), uint64(len(p.Trace.Records)), activations, checks
}

// driveStats is the simulated outcome a drive output check digests.
type driveStats struct {
	Events uint64
	Now    sim.Time
	Kinds  []kindCount
	Tasks  []taskStats
}

type kindCount struct {
	Kind  string
	Count int
}

type taskStats struct {
	Task  string
	Stats trace.Stats
}

func (dp *drivePlatform) stats() driveStats {
	p := dp.p
	st := driveStats{Events: p.K.Executed(), Now: p.K.Now()}
	for k := trace.Activate; k <= trace.Recover; k++ {
		st.Kinds = append(st.Kinds, kindCount{k.String(), p.Trace.Count(k, "")})
	}
	for _, t := range dp.tasks {
		st.Tasks = append(st.Tasks, taskStats{t, trace.Summarize(p.Trace, t)})
	}
	return st
}

// exceeds reports the tasks whose simulated maximum response time is
// above their ECU's analytic bound.
func (v driveVehicle) exceeds(st driveStats) string {
	var bad []string
	for _, t := range st.Tasks {
		if b, ok := v.bound[t.Task]; ok && t.Stats.N > 0 && t.Stats.Max > b {
			bad = append(bad, fmt.Sprintf("%s max %v > bound %v", t.Task, t.Stats.Max, b))
		}
	}
	if len(bad) == 0 {
		return ""
	}
	return "simulated response above the verified bound: " + strings.Join(bad, ", ")
}

// corruptStats falsifies one bounded task's maximum response time.
func corruptStats(st *driveStats, bound map[string]sim.Duration) {
	for i := range st.Tasks {
		if b, ok := bound[st.Tasks[i].Task]; ok {
			st.Tasks[i].Stats.N++
			st.Tasks[i].Stats.Max = b + sim.Millisecond
			return
		}
	}
}
