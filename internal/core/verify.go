// Package core is the paper's contribution layer: given a deployed
// component system it (a) statically verifies schedulability on every ECU
// and bus, contract compatibility, and end-to-end latency constraints —
// the "prior to implementation system configuration checks" §2 calls for —
// and (b) checks composability dynamically, by comparing component timing
// before and after integration or extension (§4's "stability of prior
// services").
//
// One code path produces every Report: Incremental's verification step,
// which derives the analysis inputs of whatever a pass dirtied and fans
// the per-item analyses — ECU verdicts, bus verdicts, the contract check,
// chain bounds — out on a bounded worker pool, committing them in
// deterministic order. Pipeline.Verify is that step with everything
// dirty; Incremental.Reverify runs it on the delta of a mapping move. A
// Pipeline carries the worker count plus memoized analysis caches so that
// design-space exploration, which re-verifies near-identical candidate
// mappings, pays for each distinct task set and bus frame set only once.
package core

import (
	"fmt"
	"time"

	"autorte/internal/can"
	"autorte/internal/contract"
	"autorte/internal/e2e"
	"autorte/internal/flexray"
	"autorte/internal/model"
	"autorte/internal/obs"
	"autorte/internal/par"
	"autorte/internal/rte"
	"autorte/internal/sched"
	"autorte/internal/sim"
	"autorte/internal/taskset"
	"autorte/internal/vfb"
)

// ECUReport is one ECU's schedulability verdict.
type ECUReport struct {
	Name        string
	Utilization float64
	Results     []sched.Result
	Schedulable bool
}

// BusReport is one bus's schedulability verdict.
type BusReport struct {
	Name        string
	Kind        model.BusKind
	Load        float64
	Schedulable bool
	Detail      string
}

// ChainReport is one latency constraint's verdict.
type ChainReport struct {
	Name   string
	Bound  sim.Duration
	Budget sim.Duration
	OK     bool
	Err    string
}

// Report aggregates static verification.
type Report struct {
	ECUs      []ECUReport
	Buses     []BusReport
	Chains    []ChainReport
	Contracts *contract.Report
	Warnings  []string
}

// OK reports overall static admissibility.
func (r *Report) OK() bool {
	for _, e := range r.ECUs {
		if !e.Schedulable {
			return false
		}
	}
	for _, b := range r.Buses {
		if !b.Schedulable {
			return false
		}
	}
	for _, c := range r.Chains {
		if !c.OK {
			return false
		}
	}
	return r.Contracts == nil || r.Contracts.OK()
}

// Pipeline is a reusable verification context: a bounded worker pool size
// plus memoized analysis caches shared across Verify calls. The zero
// value is valid (GOMAXPROCS workers, no caching); NewPipeline enables
// all caches. A single Pipeline is safe for concurrent use and is meant
// to be shared across the candidate evaluations of a DSE run, where most
// ECUs' task sets survive from one mapping to the next.
type Pipeline struct {
	// Workers bounds the fan-out; <= 0 selects GOMAXPROCS.
	Workers int
	// RTA memoizes per-ECU and per-chain-stage response-time analysis.
	RTA *sched.Cache
	// CAN memoizes CAN bus analysis.
	CAN *can.Cache
	// FlexRay memoizes static-segment schedule synthesis.
	FlexRay *flexray.SynthCache
	// Tracer records wall-clock spans around every Verify stage and
	// per-item job when non-nil (export with Tracer.WriteChrome or
	// Tracer.WriteTree). Nil — the default — traces nothing.
	Tracer *obs.Tracer

	// reg receives stage-duration histograms once Observe attaches it.
	reg *obs.Registry
}

// Observe attaches a metrics registry to the pipeline: stage-duration
// histograms (pipeline_stage_duration_ns by stage), the hit/miss/size
// series of all three analysis caches, and the shared worker-pool
// occupancy metrics.
func (p *Pipeline) Observe(reg *obs.Registry) {
	p.reg = reg
	p.RTA.Observe(reg)
	p.CAN.Observe(reg)
	p.FlexRay.Observe(reg)
	par.Observe(reg)
}

// stage opens one timed pipeline stage: a tracer span under parent (named
// by stage plus an optional per-item detail) and, when a registry is
// attached, a sample in the per-stage duration histogram. It returns the
// span, for child stages, and the func closing both. Cheap no-op when
// neither tracer nor registry is set.
func (p *Pipeline) stage(parent *obs.Span, stage, detail string) (*obs.Span, func()) {
	if p.Tracer == nil && p.reg == nil {
		return nil, func() {}
	}
	name := stage
	if detail != "" {
		name += " " + detail
	}
	sp := p.Tracer.StartChild(parent, name)
	t0 := time.Now() //autovet:allow walltime stage histogram times the host pipeline
	return sp, func() {
		sp.End()
		if p.reg != nil {
			p.reg.Histogram("pipeline_stage_duration_ns",
				"Wall-clock duration of verification pipeline stages.",
				obs.Label{Key: "stage", Value: stage}).Observe(time.Since(t0).Nanoseconds()) //autovet:allow walltime stage histogram times the host pipeline
		}
	}
}

// NewPipeline returns a pipeline with all analysis caches enabled.
func NewPipeline(workers int) *Pipeline {
	return &Pipeline{
		Workers: workers,
		RTA:     sched.NewCache(),
		CAN:     can.NewCache(),
		FlexRay: flexray.NewSynthCache(),
	}
}

// Verify statically checks a deployed system with a default pipeline:
// model + VFB validity, fixed-priority schedulability per ECU (with the
// same priority assignment the RTE generates), bus schedulability per
// channel, contract compatibility, and every declared end-to-end latency
// constraint.
func Verify(sys *model.System, contracts map[string]*contract.Contract, opts rte.Options) (*Report, error) {
	return NewPipeline(0).Verify(sys, contracts, opts)
}

// Verify runs the full static check through the pipeline's worker pool
// and caches: an incremental verifier's first pass, with every ECU, bus
// and chain dirty. The report is identical for any worker count: every
// job writes only its own slot and the slots are committed in a fixed
// order.
func (p *Pipeline) Verify(sys *model.System, contracts map[string]*contract.Contract, opts rte.Options) (*Report, error) {
	inc, err := NewIncremental(p, sys, contracts, opts)
	if err != nil {
		return nil, err
	}
	return inc.Report(), nil
}

// ecuVerdict is one ECU's schedulability verdict.
func (c *analysisCtx) ecuVerdict(ecu string) (ECUReport, error) {
	ok, rs, err := c.ecuRTA(ecu)
	if err != nil {
		return ECUReport{}, err
	}
	return ECUReport{Name: ecu, Utilization: sched.TotalUtilization(c.in.taskSets[ecu]), Results: rs, Schedulable: ok}, nil
}

// busVerdict runs the per-channel schedulability analysis for one bus.
func (c *analysisCtx) busVerdict(b *model.Bus) (BusReport, error) {
	br := BusReport{Name: b.Name, Kind: b.Kind, Schedulable: true}
	switch b.Kind {
	case model.BusCAN:
		cfg := can.Config{BitRate: b.BitRate}
		rs, err := c.canResponses(b.Name, cfg)
		if err != nil {
			return br, err
		}
		br.Load = can.TotalUtilization(cfg, c.in.busMsgs[b.Name])
		for _, r := range rs {
			if !r.Schedulable {
				br.Schedulable = false
				br.Detail = fmt.Sprintf("%s unschedulable (WCRT %v)", r.Message.Name, r.WCRT)
			}
		}
	case model.BusFlexRay:
		if _, err := c.flexSchedule(b.Name, defaultFlexRay(c.opts)); err != nil {
			br.Schedulable = false
			br.Detail = err.Error()
		}
	case model.BusTTP:
		// TDMA capacity: each sender ECU gets one slot per round; a
		// signal's period must exceed the round length.
		_, roundLen := ttpRound(c.sys, b.Name, c.opts)
		for _, r := range c.in.byBus[b.Name] {
			if r.Period > 0 && sim.Duration(r.Period) < roundLen {
				br.Schedulable = false
				br.Detail = fmt.Sprintf("%s period %v below TDMA round %v", r.SignalName, sim.Duration(r.Period), roundLen)
			}
		}
	}
	return br, nil
}

// ttpRound returns a TTP bus's TDMA slot length and round length: one
// slot per attached node.
func ttpRound(sys *model.System, bus string, opts rte.Options) (slot, round sim.Duration) {
	slot = opts.TTPSlotLength
	if slot == 0 {
		slot = sim.US(250)
	}
	for _, e := range sys.ECUs {
		for _, eb := range e.Buses {
			if eb == bus {
				round += slot
			}
		}
	}
	return slot, round
}

// BuildTaskSets derives the analyzable task set per ECU, using the same
// priority assignment the RTE generator applies (event-driven first, then
// rate-monotonic). Event-driven runnables inherit the period of their
// triggering producer; runnables whose rate cannot be derived are skipped
// with a warning. (Shared with the deployment search via package taskset.)
func BuildTaskSets(sys *model.System) (map[string][]sched.Task, []string) {
	return taskset.Build(sys)
}

// EffectivePeriod is a convenience wrapper over the model's shared rate
// derivation (see model.System.EffectivePeriod).
func EffectivePeriod(sys *model.System, comp *model.SWC, run *model.Runnable) sim.Duration {
	return sys.EffectivePeriod(comp, run)
}

// canMessages reconstructs the analyzable message set the RTE would put on
// a CAN bus for the given routes, which come sorted by signal name (same
// deterministic ID assignment).
func canMessages(routes []vfb.Route) []*can.Message {
	// One backing array for the frames instead of a heap object each.
	backing := make([]can.Message, 0, len(routes))
	out := make([]*can.Message, 0, len(routes))
	for i, r := range routes {
		if r.Period <= 0 {
			continue // sporadic routes need explicit MINTs; skipped here
		}
		backing = append(backing, can.Message{
			Name: r.SignalName, ID: uint32(0x100 + i),
			DLC: (r.Bits + 7) / 8, Period: sim.Duration(r.Period),
		})
		out = append(out, &backing[len(backing)-1])
	}
	return out
}

// chainBound composes the analytic end-to-end bound of a constraint chain
// from task RTA, bus analysis and sampling stages, with jitter propagation
// (package e2e semantics: each stage's bound feeds the next stage's
// release jitter; sampling stages absorb it). Stages are evaluated in
// place as stack values — no per-chain []Stage composition — since a
// large system bounds hundreds of stages per verification pass. Every
// stage analysis resolves through the pass context, so chains over the
// same ECUs and buses share one cache lookup per resource. The returned
// bus list names every bus segment the bound crossed — the dependency set
// incremental re-verification invalidates on.
func (c *analysisCtx) chainBound(lc model.LatencyConstraint) (sim.Duration, []string, error) {
	sys := c.sys
	var total, jitter sim.Duration
	var depBuses []string
	taskStage := func(name, ecu string) error {
		_, rs, err := c.ecuRTA(ecu)
		if err != nil {
			return err
		}
		ts := e2e.TaskStage{Name: name, Tasks: c.in.taskSets[ecu], Target: name, Results: rs}
		b, err := ts.Bound(jitter)
		if err != nil {
			return err
		}
		total += b
		jitter = b
		return nil
	}
	sample := func(name string, period, transfer sim.Duration) error {
		ss := e2e.SamplingStage{Name: name, Period: period, Transfer: transfer}
		b, err := ss.Bound(jitter)
		if err != nil {
			return err
		}
		total += b
		jitter = 0
		return nil
	}
	// busStage evaluates the analytic stage for one bus segment of a
	// route.
	busStage := func(busName string, signal *vfb.Route) error {
		bus := sys.BusByName(busName)
		if bus == nil {
			return fmt.Errorf("unknown bus %q", busName)
		}
		switch bus.Kind {
		case model.BusCAN:
			cs := e2e.CANStage{
				Name: busName, Cfg: can.Config{BitRate: bus.BitRate},
				Messages: c.in.busMsgs[busName], Target: signal.SignalName,
			}
			rs, err := c.canResponses(busName, cs.Cfg)
			if err != nil {
				return err
			}
			cs.Responses = rs
			b, err := cs.Bound(jitter)
			if err != nil {
				return err
			}
			total += b
			jitter = b
		case model.BusFlexRay:
			cfg := defaultFlexRay(c.opts)
			// The bound must reflect the actual synthesized slot position:
			// worst case is one full repetition of waiting plus the slot.
			as, err := c.flexSchedule(busName, cfg)
			if err != nil {
				return err
			}
			a, ok := as[signal.SignalName]
			if !ok {
				return fmt.Errorf("signal %s not in static schedule of %s", signal.SignalName, busName)
			}
			// Delivery completes at the slot end within the cycle.
			return sample(busName, sim.Duration(a.Repetition)*cfg.CycleLength(), sim.Duration(a.SlotID)*cfg.SlotLength)
		case model.BusTTP:
			slot, round := ttpRound(sys, busName, c.opts)
			return sample(busName, round, slot)
		}
		return nil
	}

	// The source stage first: the runnable(s) writing chain[0], iterated
	// in reverse declaration order — the order the prepend-style
	// composition evaluated them in.
	src := sys.Component(lc.Chain[0].SWC)
	for i := len(src.Runnables) - 1; i >= 0; i-- {
		run := &src.Runnables[i]
		for j := len(run.Writes) - 1; j >= 0; j-- {
			if run.Writes[j].Port == lc.Chain[0].Port {
				if err := taskStage(src.Name+"."+run.Name, sys.Mapping[src.Name]); err != nil {
					return 0, nil, err
				}
			}
		}
	}
	for i := 0; i+1 < len(lc.Chain); i++ {
		a, b := lc.Chain[i], lc.Chain[i+1]
		if a.SWC == b.SWC {
			// Internal hop: the runnable consuming a.Port and producing
			// b.Port.
			comp := sys.Component(a.SWC)
			run := findInternalRunnable(comp, a.Port, b.Port)
			if run == nil {
				return 0, nil, fmt.Errorf("chain %s: no runnable in %s from %s to %s", lc.Name, a.SWC, a.Port, b.Port)
			}
			name := a.SWC + "." + run.Name
			if run.Trigger.Kind == model.TimingEvent {
				// Periodic sampler: waits up to one period, then executes.
				if err := sample(name, run.Trigger.Period, 0); err != nil {
					return 0, nil, err
				}
			}
			if err := taskStage(name, sys.Mapping[a.SWC]); err != nil {
				return 0, nil, err
			}
			continue
		}
		// Communication hop a -> b.
		conn, err := findConnector(sys, a, b)
		if err != nil {
			return 0, nil, err
		}
		if sys.Mapping[a.SWC] == sys.Mapping[b.SWC] {
			continue // local: delivered at job completion, already counted
		}
		// The resolved route carries the bus path, including a gateway
		// segment pair when the ECUs share no bus. Routes are sorted by
		// signal name, so a connector with several elements resolves to
		// the same (first) route on every run.
		signal := findRouteSignal(c.in.routes, conn)
		if signal == nil {
			return 0, nil, fmt.Errorf("chain %s: no route for connector %s.%s -> %s.%s", lc.Name, a.SWC, a.Port, b.SWC, b.Port)
		}
		depBuses = append(depBuses, signal.Bus)
		if err := busStage(signal.Bus, signal); err != nil {
			return 0, nil, fmt.Errorf("chain %s: %w", lc.Name, err)
		}
		if signal.Via != "" {
			depBuses = append(depBuses, signal.Bus2)
			if err := busStage(signal.Bus2, signal); err != nil {
				return 0, nil, fmt.Errorf("chain %s: %w", lc.Name, err)
			}
		}
	}
	return total, depBuses, nil
}

// defaultFlexRay resolves the effective FlexRay configuration.
func defaultFlexRay(opts rte.Options) flexray.Config {
	if opts.FlexRayConfig.CycleLength() != 0 {
		return opts.FlexRayConfig
	}
	return flexray.Config{
		StaticSlots: 8, SlotLength: sim.US(100),
		Minislots: 40, MinislotLength: sim.US(5), NIT: sim.US(100),
	}
}

// flexraySchedule synthesizes the static schedule for a bus's periodic
// routes (through the pipeline's synthesis cache) and indexes it by signal
// name.
func (p *Pipeline) flexraySchedule(cfg flexray.Config, routes []vfb.Route) (map[string]flexray.Assignment, error) {
	var sigs []flexray.Signal
	for _, r := range routes {
		if r.Period > 0 {
			sigs = append(sigs, flexray.Signal{Name: r.SignalName, Period: sim.Duration(r.Period)})
		}
	}
	as, err := p.FlexRay.SynthesizeShared(cfg, sigs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]flexray.Assignment, len(as))
	for _, a := range as {
		out[a.Signal.Name] = a
	}
	return out, nil
}

func findInternalRunnable(comp *model.SWC, inPort, outPort string) *model.Runnable {
	for i := range comp.Runnables {
		run := &comp.Runnables[i]
		reads := run.Trigger.Port == inPort
		for _, rr := range run.Reads {
			if rr.Port == inPort {
				reads = true
			}
		}
		writes := false
		for _, w := range run.Writes {
			if w.Port == outPort {
				writes = true
			}
		}
		if reads && writes {
			return run
		}
	}
	return nil
}

func findConnector(sys *model.System, a, b model.PortRef2) (model.Connector, error) {
	for _, c := range sys.Connectors {
		if c.FromSWC == a.SWC && c.FromPort == a.Port && c.ToSWC == b.SWC && c.ToPort == b.Port {
			return c, nil
		}
	}
	return model.Connector{}, fmt.Errorf("no connector %s.%s -> %s.%s", a.SWC, a.Port, b.SWC, b.Port)
}

// findRouteSignal returns the first remote route of conn.
func findRouteSignal(routes []vfb.Route, conn model.Connector) *vfb.Route {
	for i := range routes {
		if r := &routes[i]; r.Conn == conn && !r.Local {
			return r
		}
	}
	return nil
}
