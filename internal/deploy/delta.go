package deploy

// Prepared is the mapping half of the search state: on top of a Bound it
// retains the incumbent mapping's per-ECU hosted component lists and
// accumulators, and memoizes response-time verdicts per ECU, so scoring
// a single-component move re-derives only the two ECUs it touches.
//
// A move's dirty ECUs cost O(hosted components): their accumulators are
// re-walked from the hosted lists (the moved component skipped or merged
// in at its index, so the summation order stays Evaluator.Evaluate's),
// and their RTA verdicts come from a per-ECU memo row, one slot per
// toggled component. Apply drops only the two rows it dirties. Every
// other ECU is read from the incumbent arrays.
//
// Two scorers share one assembly (score): EvaluateMove/Evaluate build
// the full Metrics with violation text, bit-identical to
// Evaluator.Evaluate on the moved system (TestGoldenCorpus,
// TestPreparedEvaluateMoveMatchesBoundEvaluate and
// FuzzPreparedMatchesEvaluate hold the two together); moveCost, the
// searches' scorer, stops at the first violation without formatting
// text and reaches the RTA stage only when every cheaper check passed.
// TestGoldenCorpus and FuzzPreparedMatchesEvaluate also hold moveCost
// equal to EvaluateMove(...).Cost, and TestMoveCostAllocs holds it at
// zero allocations on a warm Prepared.

import (
	"fmt"
	"slices"
	"sync/atomic"

	"autorte/internal/model"
)

// ecuAcc is one ECU's accumulator state: the hosting terms
// Evaluator.Evaluate derives per evaluation.
type ecuAcc struct {
	load        float64
	memory      int
	hosts       bool
	worst, best model.ASIL
}

// add folds one hosted component into the accumulator, in
// Evaluator.Evaluate's per-component order.
func (a *ecuAcc) add(c *boundComp, speed float64) {
	if !a.hosts || c.asil < a.best {
		a.best = c.asil
	}
	a.hosts = true
	a.memory += c.memoryKB
	if c.asil > a.worst {
		a.worst = c.asil
	}
	if c.passive {
		return // suspended until promotion: no normal-case demand
	}
	for _, t := range c.loadTerms {
		a.load += t / speed
	}
}

// RTA verdict states of the memo rows; rtaUnknown (the zero value) is a
// slot not analyzed yet.
const (
	rtaUnknown uint32 = iota
	rtaOK
	rtaUnschedulable
	rtaFailed
)

// Prepared scores single-component moves against an incumbent mapping in
// O(dirty ECUs) instead of O(system). Scoring (EvaluateMove, Evaluate,
// moveCost) only reads the incumbent and fills memo slots atomically, so
// it is safe for concurrent use (parallel steepest descent scores all
// moves of a round concurrently); Apply commits a move and is not.
type Prepared struct {
	b   *Bound
	cur map[string]string
	// curIdx mirrors cur as comp index -> ECU index, so the hot loops
	// compare integers instead of hashing names.
	curIdx []int
	// hosted lists each ECU's components in ascending index order — the
	// order Evaluator.Evaluate accumulates them in.
	hosted [][]int
	// accs holds each ECU's incumbent accumulator, indexed like b.ecus.
	accs []ecuAcc
	// rta memoizes RTA verdicts under RequireSchedulable (nil otherwise),
	// one row of len(b.comps)+1 slots per ECU: slot ci is the ECU's
	// verdict with component ci toggled (leaving it when hosted there,
	// joining it otherwise), the last slot the incumbent's own. A search
	// rescoring its neighborhood between accepted moves hits the same
	// slots over and over. Atomic, so concurrent scorers share the rows.
	rta []atomic.Uint32
}

// Prepare binds the evaluator state to an incumbent mapping. It rejects
// mappings outside the DSE invariant — every component mapped to a known
// ECU, no stray entries — because only there is the delta path guaranteed
// to reproduce Evaluator.Evaluate exactly; searches bootstrap such a
// mapping through Greedy instead.
func (b *Bound) Prepare(mapping map[string]string) (*Prepared, error) {
	if len(mapping) != len(b.comps) {
		return nil, fmt.Errorf("deploy: prepare: mapping has %d entries for %d components", len(mapping), len(b.comps))
	}
	p := &Prepared{
		b:      b,
		cur:    cloneMapping(mapping),
		curIdx: make([]int, len(b.comps)),
		hosted: make([][]int, len(b.ecus)),
		accs:   make([]ecuAcc, len(b.ecus)),
	}
	for i := range b.comps {
		ecu, ok := mapping[b.comps[i].name]
		if !ok {
			return nil, fmt.Errorf("deploy: prepare: component %s is not mapped", b.comps[i].name)
		}
		ei, ok := b.ecuIdx[ecu]
		if !ok {
			return nil, fmt.Errorf("deploy: prepare: %s mapped to unknown ECU %q", b.comps[i].name, ecu)
		}
		p.curIdx[i] = ei
		p.hosted[ei] = append(p.hosted[ei], i)
	}
	for i := range b.ecus {
		p.accs[i] = p.accumulate(i, -1, -1)
	}
	if b.cons.RequireSchedulable {
		p.rta = make([]atomic.Uint32, len(b.ecus)*(len(b.comps)+1))
	}
	return p, nil
}

// accumulate derives ECU idx's accumulator for its incumbent hosted set
// minus comp index skip, plus comp index add (-1 for none) merged in at
// its index — the two adjustments a single-component move needs.
func (p *Prepared) accumulate(idx, skip, add int) ecuAcc {
	comps, speed := p.b.comps, p.b.ecus[idx].speed
	var a ecuAcc
	for _, ci := range p.hosted[idx] {
		if add >= 0 && add < ci {
			a.add(&comps[add], speed)
			add = -1
		}
		if ci != skip {
			a.add(&comps[ci], speed)
		}
	}
	if add >= 0 {
		a.add(&comps[add], speed)
	}
	return a
}

// slot indexes ECU idx's memo row at toggled comp ci (-1: the incumbent).
func (p *Prepared) slot(idx, ci int) *atomic.Uint32 {
	n := len(p.b.comps) + 1
	if ci < 0 {
		ci = n - 1
	}
	return &p.rta[idx*n+ci]
}

// verdict returns ECU idx's RTA verdict with comp ci toggled (-1 for
// none), analyzing it on the first request.
func (p *Prepared) verdict(idx, ci int) uint32 {
	s := p.slot(idx, ci)
	if v := s.Load(); v != rtaUnknown {
		return v
	}
	v, _ := p.analyze(idx, ci)
	s.Store(v)
	return v
}

// analyze runs the response-time analysis of ECU idx's hosted set with
// comp ci toggled (-1 for none) — taskset.Build's grouping, ranked in the
// bound global proto order — through the evaluator's cache.
func (p *Prepared) analyze(idx, ci int) (uint32, error) {
	b := p.b
	skip, add := -1, -1
	if ci >= 0 {
		if p.curIdx[ci] == idx {
			skip = ci
		} else {
			add = ci
		}
	}
	buf := rtaBufs.Get().(*rtaBuf)
	defer rtaBufs.Put(buf)
	protos := buf.protos[:0]
	for _, x := range p.hosted[idx] {
		if x != skip {
			protos = b.comps[x].appendActive(protos)
		}
	}
	if add >= 0 {
		protos = b.comps[add].appendActive(protos)
	}
	buf.protos = protos
	ok, err := buf.check(b.ev.RTA, b.ecus[idx].speed)
	switch {
	case err != nil:
		return rtaFailed, err
	case !ok:
		return rtaUnschedulable, nil
	}
	return rtaOK, nil
}

// indices resolves a move's names. An unknown name yields the error
// model.System.Validate reports for the moved mapping.
func (b *Bound) indices(comp, ecu string) (ci, ei int, err error) {
	ci, ok := b.compIdx[comp]
	if !ok {
		return 0, 0, fmt.Errorf("mapping references unknown component %q", comp)
	}
	ei, ok = b.ecuIdx[ecu]
	if !ok {
		return 0, 0, fmt.Errorf("mapping of %s references unknown ECU %q", comp, ecu)
	}
	return ci, ei, nil
}

// EvaluateMove scores moving comp to ecu without committing it. A move
// naming an unknown component or ECU is infeasible, with the violation
// model.System.Validate reports for the moved mapping.
func (p *Prepared) EvaluateMove(comp, ecu string) Metrics {
	ci, ei, err := p.b.indices(comp, ecu)
	if err != nil {
		return Metrics{Feasible: false, Violations: []string{err.Error()}}
	}
	var m Metrics
	p.score(ci, ei, &m, true)
	return m
}

// Evaluate scores the incumbent mapping itself from the retained state.
func (p *Prepared) Evaluate() Metrics {
	var m Metrics
	p.score(-1, -1, &m, true)
	return m
}

// moveCost is EvaluateMove(ci, ei).Cost(obj) without the explanation:
// the searches' scorer (ci = -1 scores the incumbent).
func (p *Prepared) moveCost(ci, ei int, obj Objective) float64 {
	var m Metrics
	p.score(ci, ei, &m, false)
	return m.Cost(obj)
}

// Apply commits a previously scored move into the incumbent state. Not
// safe for concurrent use with EvaluateMove.
func (p *Prepared) Apply(comp, ecu string) error {
	ci, ei, err := p.b.indices(comp, ecu)
	if err != nil {
		return fmt.Errorf("deploy: apply: %w", err)
	}
	p.apply(ci, ei)
	return nil
}

// apply commits moving comp index ci to ECU index ei.
func (p *Prepared) apply(ci, ei int) {
	oi := p.curIdx[ci]
	if oi == ei {
		return
	}
	p.cur[p.b.comps[ci].name] = p.b.ecus[ei].name
	p.curIdx[ci] = ei
	h := p.hosted[oi]
	k, _ := slices.BinarySearch(h, ci)
	p.hosted[oi] = slices.Delete(h, k, k+1)
	k, _ = slices.BinarySearch(p.hosted[ei], ci)
	p.hosted[ei] = slices.Insert(p.hosted[ei], k, ci)
	p.accs[oi] = p.accumulate(oi, -1, -1)
	p.accs[ei] = p.accumulate(ei, -1, -1)
	if p.rta == nil {
		return
	}
	// Only the two dirty rows are stale: a move between oi and ei changes
	// no other ECU's hosted set, and a slot's toggled component names its
	// own membership. The move's own verdicts become the two new
	// incumbent verdicts.
	for _, idx := range [2]int{oi, ei} {
		moved := p.slot(idx, ci).Load()
		p.dropRow(idx)
		p.slot(idx, -1).Store(moved)
	}
}

// dropRow forgets every memoized verdict of ECU idx.
func (p *Prepared) dropRow(idx int) {
	for c := -1; c < len(p.b.comps); c++ {
		p.slot(idx, c).Store(rtaUnknown)
	}
}

// Mapping returns a copy of the incumbent mapping.
func (p *Prepared) Mapping() map[string]string { return cloneMapping(p.cur) }

func cloneMapping(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// candidate is one scored mapping as a view over a base mapping (comp
// index -> ECU index, -1 when unmapped) and its per-ECU accumulators:
// comp ci moved from ECU oi to ECU ei (all -1 for the base itself), the
// two dirty ECUs' accumulators overridden by from and to. Both
// evaluation paths hand their mapping to redCheck in this form.
type candidate struct {
	curIdx     []int
	accs       []ecuAcc
	ci, oi, ei int
	from, to   ecuAcc
}

func (c *candidate) acc(i int) *ecuAcc {
	switch i {
	case c.oi:
		return &c.from
	case c.ei:
		return &c.to
	}
	return &c.accs[i]
}

// ecuOf resolves a comp index to its ECU index, -1 when unmapped.
func (c *candidate) ecuOf(comp int) int {
	if comp == c.ci {
		return c.ei
	}
	return c.curIdx[comp]
}

// toggled is the comp index ECU i's hosted set differs from the
// incumbent's by, -1 for none.
func (c *candidate) toggled(i int) int {
	if i == c.oi || i == c.ei {
		return c.ci
	}
	return -1
}

// score folds the candidate mapping — the incumbent with comp index ci
// moved to ECU index ei; ci = -1 for the incumbent itself — into m with
// Evaluator.Evaluate's exact term order: per-ECU checks in declaration
// order (counting ECUs and summing loads), harness sum in connector
// order, fail-operational checks, communication verdict, RTA verdicts
// in sorted ECU order, then load variance. With explain false, the first
// violation clears m.Feasible and ends the scoring without formatting
// any text; the remaining terms are then left unset.
func (p *Prepared) score(ci, ei int, m *Metrics, explain bool) {
	b := p.b
	cons := &b.cons
	*m = Metrics{Feasible: true}
	if b.consErr != nil {
		m.Feasible = false
		if explain {
			m.Violations = append(m.Violations, b.consErr.Error())
		}
		return
	}
	c := candidate{curIdx: p.curIdx, accs: p.accs, ci: -1, oi: -1, ei: -1}
	if ci >= 0 && p.curIdx[ci] != ei {
		c.ci, c.oi, c.ei = ci, p.curIdx[ci], ei
		c.from = p.accumulate(c.oi, ci, -1)
		c.to = p.accumulate(ei, -1, ci)
	}
	mean := 0.0
	for i := range b.ecus {
		a := c.acc(i)
		if !a.hosts {
			continue
		}
		e := &b.ecus[i]
		m.ECUs++
		mean += a.load
		if a.load > m.MaxLoad {
			m.MaxLoad = a.load
		}
		if a.load > cons.MaxUtilization {
			m.Feasible = false
			if !explain {
				return
			}
			m.Violations = append(m.Violations, fmt.Sprintf("%s overloaded: %.3f > %.3f", e.name, a.load, cons.MaxUtilization))
		}
		if cons.RespectMemory && e.memoryKB > 0 && a.memory > e.memoryKB {
			m.Feasible = false
			if !explain {
				return
			}
			m.Violations = append(m.Violations, fmt.Sprintf("%s out of memory: %d > %d KB", e.name, a.memory, e.memoryKB))
		}
		if cons.RespectASIL && a.worst > e.maxASIL {
			m.Feasible = false
			if !explain {
				return
			}
			m.Violations = append(m.Violations, fmt.Sprintf("%s hosts %v components but qualifies only for %v", e.name, a.worst, e.maxASIL))
		}
		if _, _, over := asilSpread(a.worst, a.best, cons.MaxASILSpread); over {
			m.Feasible = false
			if !explain {
				return
			}
			m.Violations = append(m.Violations, asilSpreadViolation(e.name, a.worst, a.best, cons.MaxASILSpread))
		}
	}
	// Communication: the first route-producing remote connector without a
	// reachable ECU pair is the error vfb.Resolve reports. It is reported
	// after the fail-operational violations.
	var pathErr error
	for k := range b.conns {
		cn := &b.conns[k]
		si, di := c.ecuOf(cn.from), c.ecuOf(cn.to)
		if si == di {
			continue
		}
		m.Harness += b.dist[si][di]
		if pathErr == nil && cn.needsPath && b.path[si][di] != nil {
			pathErr = b.path[si][di]
			m.Feasible = false
			if !explain {
				return
			}
		}
	}
	rc := redCheck{comps: b.comps, groups: b.groups, ecus: b.ecus, cons: b.cons, rta: b.ev.RTA, cand: c, quick: !explain}
	rc.run(m)
	if !explain && !m.Feasible {
		return
	}
	if pathErr != nil {
		m.Violations = append(m.Violations, pathErr.Error())
	}
	if cons.RequireSchedulable {
		for _, i := range b.ecuByName {
			v := p.verdict(i, c.toggled(i))
			if v == rtaOK {
				continue
			}
			m.Feasible = false
			if !explain {
				return
			}
			m.Violations = append(m.Violations, p.rtaViolation(i, c.toggled(i), v))
		}
	}
	if m.ECUs > 0 {
		mean /= float64(m.ECUs)
		for i := range b.ecus {
			if a := c.acc(i); a.hosts {
				m.LoadVar += (a.load - mean) * (a.load - mean)
			}
		}
		m.LoadVar /= float64(m.ECUs)
	}
}

// rtaViolation formats the violation of ECU idx's failed verdict v with
// comp ci toggled. The memo keeps only the verdict and sched.Cache does
// not cache errors, so an analysis error's text is re-derived.
func (p *Prepared) rtaViolation(idx, ci int, v uint32) string {
	name := p.b.ecus[idx].name
	if v == rtaUnschedulable {
		return fmt.Sprintf("%s unschedulable under response-time analysis", name)
	}
	_, err := p.analyze(idx, ci)
	return fmt.Sprintf("%s: RTA failed: %v", name, err)
}
