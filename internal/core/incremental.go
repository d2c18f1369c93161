// Incremental verification: design-space exploration mutates one or two
// mapping entries per candidate, yet most of a report survives the move.
// Incremental retains the verified state of the last mapping and, given
// the next one, re-analyzes only what the moves can affect — the task
// sets and verdicts of the source and target ECUs, the routes (and hence
// message sets and verdicts) of buses a changed route crosses, and the
// constraint chains whose recorded ECU/bus dependency sets intersect the
// dirty sets. Route templates and ECU-pair paths are mapping-independent
// and computed once; so is the contract report.
//
// The first pass is the same step with everything dirty, which is how
// Pipeline.Verify produces its report.
package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync/atomic"

	"autorte/internal/can"
	"autorte/internal/contract"
	"autorte/internal/model"
	"autorte/internal/obs"
	"autorte/internal/par"
	"autorte/internal/rte"
	"autorte/internal/sched"
	"autorte/internal/taskset"
	"autorte/internal/vfb"
)

// inputs are the mapping-dependent analysis inputs of one mapping. A pass
// derives the next inputs from the retained ones, sharing what its moves
// left clean, and replaces the retained ones only when it succeeds.
type inputs struct {
	routes   []vfb.Route // sorted by SignalName, one per template
	byBus    map[string][]vfb.Route
	busMsgs  map[string][]*can.Message // CAN buses only
	taskSets map[string][]sched.Task   // ECUs with an analyzable task
	warnings map[string][]string       // rate-less runnables per ECU
}

// Incremental verifies a system once in full and then re-verifies mutated
// mappings at the cost of the delta. Reports are identical — field for
// field — to a fresh Pipeline.Verify of the same mapping. The system must
// not be modified while the Incremental is in use, other than through
// Reverify. Not safe for concurrent use: a DSE loop owns one Incremental
// per search thread.
type Incremental struct {
	p         *Pipeline
	sys       *model.System
	contracts map[string]*contract.Contract
	opts      rte.Options

	// Mapping-independent precomputation.
	tmpls   []vfb.Template // sorted by SignalName
	pathFor func(src, dst string) (bus, via, bus2 string, err error)

	// State of the last verified mapping (sys.Mapping).
	in          *inputs
	ecuRep      map[string]ECUReport
	busRep      map[string]BusReport // routed buses only
	chainRep    []ChainReport
	chainECUs   [][]string // ECUs the chain's stages read (last eval)
	chainBuses  [][]string // bus segments the chain's bound crossed
	contractRep *contract.Report

	reverifies atomic.Uint64
	recomputed atomic.Uint64 // items re-analyzed across reverifies
	reused     atomic.Uint64 // items served from retained state
}

// NewIncremental verifies sys in full through p's caches — every ECU, bus
// and chain dirty — and retains the state needed to re-verify mutated
// mappings incrementally. The report is available via Report().
func NewIncremental(p *Pipeline, sys *model.System, contracts map[string]*contract.Contract, opts rte.Options) (*Incremental, error) {
	root := p.Tracer.Start("verify")
	defer root.End()
	_, endSetup := p.stage(root, "verify/setup", "")
	if err := sys.Validate(); err != nil {
		endSetup()
		return nil, err
	}
	if err := vfb.CheckConnectivity(sys); err != nil {
		endSetup()
		return nil, err
	}
	n := len(sys.Constraints)
	inc := &Incremental{
		p: p, sys: sys, contracts: contracts, opts: opts,
		tmpls:      vfb.Templates(sys),
		pathFor:    vfb.PathMemo(sys),
		ecuRep:     make(map[string]ECUReport, len(sys.ECUs)),
		busRep:     map[string]BusReport{},
		chainRep:   make([]ChainReport, n),
		chainECUs:  make([][]string, n),
		chainBuses: make([][]string, n),
		in:         &inputs{},
	}
	routes, dirtyBus, err := inc.reroute(nil)
	endSetup()
	if err != nil {
		return nil, err
	}
	if _, err := inc.pass(root, routes, dirtyBus, nil); err != nil {
		return nil, err
	}
	return inc, nil
}

// Report assembles the retained state into a Report identical to what a
// fresh Pipeline.Verify of the current mapping returns.
func (inc *Incremental) Report() *Report {
	rep := &Report{ECUs: make([]ECUReport, 0, len(inc.ecuRep))}
	for _, e := range sortedKeys(inc.ecuRep) {
		rep.ECUs = append(rep.ECUs, inc.ecuRep[e])
	}
	for _, b := range inc.sys.Buses {
		if br, ok := inc.busRep[b.Name]; ok {
			rep.Buses = append(rep.Buses, br)
		}
	}
	rep.Chains = slices.Clone(inc.chainRep)
	rep.Contracts = inc.contractRep
	for _, e := range sortedKeys(inc.in.warnings) {
		rep.Warnings = append(rep.Warnings, inc.in.warnings[e]...)
	}
	return rep
}

// Reverify re-verifies the system under a mutated mapping, re-analyzing
// only the ECUs, buses and chains the moves can affect. mapping must cover
// exactly the mapped components of the original system. On success the
// system's Mapping reflects the new deployment and the retained state
// advances; on error the retained state still describes the previous
// verified mapping.
func (inc *Incremental) Reverify(mapping map[string]string) (*Report, error) {
	root, end := inc.p.stage(nil, "verify/reverify", "")
	defer end()
	inc.reverifies.Add(1)
	sys := inc.sys
	if len(mapping) != len(sys.Mapping) {
		return nil, fmt.Errorf("core: incremental reverify: mapping has %d entries, want %d", len(mapping), len(sys.Mapping))
	}
	// Sorted component names: with several unknown components the
	// returned error must not depend on map iteration order.
	var moved []string
	for _, comp := range sortedKeys(mapping) {
		old, ok := sys.Mapping[comp]
		if !ok {
			return nil, fmt.Errorf("core: incremental reverify: unknown component %s", comp)
		}
		if old != mapping[comp] {
			moved = append(moved, comp)
		}
	}
	if len(moved) == 0 {
		inc.reused.Add(uint64(len(inc.ecuRep) + len(inc.busRep) + len(inc.chainRep)))
		return inc.Report(), nil
	}

	// Commit the move first — the pass reads it — and take it back if the
	// pass fails.
	dirtyECU := map[string]bool{}
	prev := make([]string, len(moved))
	for i, comp := range moved {
		prev[i] = sys.Mapping[comp]
		dirtyECU[prev[i]], dirtyECU[mapping[comp]] = true, true
		sys.Mapping[comp] = mapping[comp]
	}
	touched := make([]bool, len(inc.tmpls))
	for i, t := range inc.tmpls {
		touched[i] = slices.Contains(moved, t.Conn.FromSWC) || slices.Contains(moved, t.Conn.ToSWC)
	}
	var analyzed int
	routes, dirtyBus, err := inc.reroute(touched)
	if err == nil {
		analyzed, err = inc.pass(root, routes, dirtyBus, dirtyECU)
	}
	if err != nil {
		for i, comp := range moved {
			sys.Mapping[comp] = prev[i]
		}
		return nil, err
	}
	inc.recomputed.Add(uint64(analyzed))
	inc.reused.Add(uint64(len(inc.ecuRep) + len(inc.busRep) + len(inc.chainRep) - analyzed))
	return inc.Report(), nil
}

// pass is the one verification step. Given the routes of the current
// mapping and the buses they changed, it derives the analysis inputs,
// then runs the verdicts of the dirty ECUs and buses, the contract check
// (first pass only) and the bounds of the dirty chains: those whose
// recorded ECU or bus dependencies are dirty, plus those whose last
// evaluation errored (conservative, since an errored evaluation recorded
// no complete dependency set). The analyses fan out on the pipeline's
// workers in that job order, so the error returned is the one a
// sequential run meets first. Only when all succeed does the pass commit
// the inputs and verdicts as the retained state. A nil dirtyECU makes the
// first pass: everything dirty. It returns the number of ECUs, buses and
// chains analyzed.
//
// The first pass opens the verify/tasksets stage and one stage per item;
// a delta pass is timed whole by its verify/reverify stage, so the
// per-stage histograms keep describing fresh verifies.
func (inc *Incremental) pass(root *obs.Span, routes []vfb.Route, dirtyBus, dirtyECU map[string]bool) (int, error) {
	p, sys := inc.p, inc.sys
	stage := p.stage
	first := dirtyECU == nil
	if first {
		dirtyECU = make(map[string]bool, len(sys.ECUs))
		for _, e := range sys.ECUs {
			dirtyECU[e.Name] = true
		}
	} else {
		stage = func(*obs.Span, string, string) (*obs.Span, func()) { return nil, func() {} }
	}
	_, endTasksets := stage(root, "verify/tasksets", "")
	next := inc.derive(routes, dirtyBus, dirtyECU)
	endTasksets()
	ecus := sortedKeys(dirtyECU)
	var buses []string
	for _, b := range sys.Buses {
		if dirtyBus[b.Name] {
			buses = append(buses, b.Name)
		}
	}
	var chains []int
	for i := range inc.chainRep {
		if first || inc.chainRep[i].Err != "" ||
			slices.ContainsFunc(inc.chainECUs[i], func(e string) bool { return dirtyECU[e] }) ||
			slices.ContainsFunc(inc.chainBuses[i], func(b string) bool { return dirtyBus[b] }) {
			chains = append(chains, i)
		}
	}

	// One job per analyzable dirty ECU, per routed dirty bus, per chain,
	// plus the contract check; each writes only its own slot.
	ctx := p.newAnalysisCtx(sys, next, inc.opts)
	ecuReps := make([]ECUReport, len(ecus))
	busReps := make([]BusReport, len(buses))
	chainReps := make([]ChainReport, len(chains))
	chainBuses := make([][]string, len(chains))
	var contractRep *contract.Report
	var jobs []func() error
	for i, ecu := range ecus {
		if _, ok := next.taskSets[ecu]; !ok {
			continue // the ECU lost its last analyzable task
		}
		jobs = append(jobs, func() error {
			_, end := stage(root, "verify/ecu", ecu)
			defer end()
			var err error
			ecuReps[i], err = ctx.ecuVerdict(ecu)
			return err
		})
	}
	for i, b := range buses {
		if len(next.byBus[b]) == 0 {
			continue // no route crosses the bus any more
		}
		jobs = append(jobs, func() error {
			_, end := stage(root, "verify/bus", b)
			defer end()
			var err error
			busReps[i], err = ctx.busVerdict(sys.BusByName(b))
			return err
		})
	}
	checkContracts := inc.contracts != nil && inc.contractRep == nil
	if checkContracts {
		jobs = append(jobs, func() error {
			_, end := stage(root, "verify/contracts", "")
			defer end()
			var err error
			contractRep, err = contract.CheckSystem(sys, inc.contracts)
			return err
		})
	}
	for k, i := range chains {
		lc := sys.Constraints[i]
		jobs = append(jobs, func() error {
			_, end := stage(root, "verify/chain", lc.Name)
			defer end()
			cr := ChainReport{Name: lc.Name, Budget: lc.Budget}
			bound, deps, err := ctx.chainBound(lc)
			if err != nil {
				cr.Err = err.Error() // a chain's analysis error is its verdict
			} else {
				cr.Bound = bound
				cr.OK = bound <= lc.Budget
			}
			chainReps[k], chainBuses[k] = cr, deps
			return nil
		})
	}
	if err := par.ForEach(p.Workers, len(jobs), func(i int) error { return jobs[i]() }); err != nil {
		return 0, err
	}

	inc.in = next
	for i, ecu := range ecus {
		if _, ok := next.taskSets[ecu]; ok {
			inc.ecuRep[ecu] = ecuReps[i]
		} else {
			delete(inc.ecuRep, ecu)
		}
	}
	for i, b := range buses {
		if len(next.byBus[b]) > 0 {
			inc.busRep[b] = busReps[i]
		} else {
			delete(inc.busRep, b)
		}
	}
	if checkContracts {
		inc.contractRep = contractRep
	}
	for k, i := range chains {
		ecus := make([]string, 0, len(sys.Constraints[i].Chain))
		for _, hop := range sys.Constraints[i].Chain {
			if e, ok := sys.Mapping[hop.SWC]; ok && !slices.Contains(ecus, e) {
				ecus = append(ecus, e)
			}
		}
		inc.chainRep[i], inc.chainECUs[i], inc.chainBuses[i] = chainReps[k], ecus, chainBuses[k]
	}
	analyzed := len(jobs)
	if checkContracts {
		analyzed--
	}
	return analyzed, nil
}

// reroute materializes the touched route templates (all of them when
// touched is nil) under the current mapping. It returns the routes —
// the retained slice itself when no route changed — and the buses a
// changed route crosses before or after. The retained state is not
// modified; the error is the one a full resolve meets first.
func (inc *Incremental) reroute(touched []bool) ([]vfb.Route, map[string]bool, error) {
	sys, cur := inc.sys, inc.in.routes
	routes, cloned := cur, false
	dirtyBus := map[string]bool{}
	for i, t := range inc.tmpls {
		if touched != nil && !touched[i] {
			continue
		}
		r, err := t.Materialize(sys.Mapping, inc.pathFor)
		if err != nil {
			// The error a full resolve meets first.
			_, err = vfb.MaterializeAll(sys, inc.tmpls, sys.Mapping, inc.pathFor)
			return nil, nil, err
		}
		var old vfb.Route // none yet on the first pass
		if cur != nil {
			old = cur[i]
		}
		if r == old {
			continue
		}
		for _, b := range [...]string{old.Bus, old.Bus2, r.Bus, r.Bus2} {
			if b != "" {
				dirtyBus[b] = true
			}
		}
		if !cloned {
			routes, cloned = make([]vfb.Route, len(inc.tmpls)), true
			copy(routes, cur)
		}
		routes[i] = r
	}
	return routes, dirtyBus, nil
}

// derive builds the analysis inputs of the current mapping from its routes
// and the retained inputs, sharing what is clean: it regroups every dirty
// bus and rebuilds the task sets of the dirty ECUs. The retained inputs
// are not modified.
func (inc *Incremental) derive(routes []vfb.Route, dirtyBus, dirtyECU map[string]bool) *inputs {
	sys, cur := inc.sys, inc.in
	next := &inputs{
		routes: routes, byBus: cur.byBus, busMsgs: cur.busMsgs,
		taskSets: make(map[string][]sched.Task, len(cur.taskSets)+len(dirtyECU)),
		warnings: make(map[string][]string, len(cur.warnings)),
	}
	maps.Copy(next.taskSets, cur.taskSets)
	maps.Copy(next.warnings, cur.warnings)
	if len(dirtyBus) > 0 {
		next.byBus = make(map[string][]vfb.Route, len(cur.byBus))
		for b, rs := range cur.byBus {
			if !dirtyBus[b] {
				next.byBus[b] = rs
			}
		}
		for _, r := range routes {
			if r.Local {
				continue
			}
			if dirtyBus[r.Bus] {
				next.byBus[r.Bus] = append(next.byBus[r.Bus], r)
			}
			if r.Via != "" && dirtyBus[r.Bus2] {
				next.byBus[r.Bus2] = append(next.byBus[r.Bus2], r)
			}
		}
		next.busMsgs = make(map[string][]*can.Message, len(cur.busMsgs))
		for b, ms := range cur.busMsgs {
			if !dirtyBus[b] {
				next.busMsgs[b] = ms
			}
		}
		for _, b := range sys.Buses {
			if dirtyBus[b.Name] && b.Kind == model.BusCAN && len(next.byBus[b.Name]) > 0 {
				next.busMsgs[b.Name] = canMessages(next.byBus[b.Name])
			}
		}
	}
	hosted := make(map[string][]*model.SWC, len(dirtyECU))
	for _, comp := range sys.Components {
		if ecu := sys.Mapping[comp.Name]; dirtyECU[ecu] {
			hosted[ecu] = append(hosted[ecu], comp)
		}
	}
	for ecu := range dirtyECU {
		tasks, warnings := taskset.ECU(sys, ecu, hosted[ecu])
		if tasks == nil {
			delete(next.taskSets, ecu)
		} else {
			next.taskSets[ecu] = tasks
		}
		if warnings == nil {
			delete(next.warnings, ecu)
		} else {
			next.warnings[ecu] = warnings
		}
	}
	return next
}

// Stats reports how many per-item analyses Reverify calls re-ran versus
// served from retained state.
func (inc *Incremental) Stats() (recomputed, reused uint64) {
	return inc.recomputed.Load(), inc.reused.Load()
}

// Observe registers the incremental layer's reuse counters.
func (inc *Incremental) Observe(reg *obs.Registry) {
	reg.CounterFunc("incremental_reverify_total", "Incremental re-verification passes.", inc.reverifies.Load)
	reg.CounterFunc("incremental_recomputed_total", "Per-item analyses re-run by incremental re-verification.", inc.recomputed.Load)
	reg.CounterFunc("incremental_reused_total", "Per-item results served from retained state by incremental re-verification.", inc.reused.Load)
}

// sortedKeys returns m's keys sorted: a fixed order keeps first-error-wins
// reporting and report assembly independent of map iteration order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
