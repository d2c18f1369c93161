package deploy

// The inner loop of every search in this package scores candidate
// mappings of ONE fixed topology: components, connectors, ECUs and buses
// never change between candidates, only the Mapping does. Evaluator.Bind
// exploits that invariant — it derives everything mapping-independent
// once (effective runnable rates, per-component load terms, proto task
// sets ranked in one global order, connector endpoints, ECU-pair
// distances and bus reachability) into a Bound, together with the
// evaluator's constraints, filled and validated once. Bound.Prepare adds
// the mapping state on top (delta.go), and a search scores every
// candidate through that one Prepared. Evaluator.Evaluate stays the
// one-shot scorer and the reference the golden corpus and equivalence
// tests hold the Prepared path to.

import (
	"math"
	"sort"

	"autorte/internal/model"
	"autorte/internal/sim"
	"autorte/internal/vfb"
)

// protoTask is the mapping-independent part of one runnable's analyzable
// task: everything except the hosting ECU's speed and the per-ECU
// priority rank, which depend on the candidate mapping.
type protoTask struct {
	name     string // comp.runnable, the analyzable task name
	sortKey  string // comp name + runnable name, taskset's tie-break key
	wcet     sim.Duration
	period   sim.Duration // derived effective period; 0 = no rate
	deadline sim.Duration
	// ord is the proto's position in the global (period, sortKey) order,
	// precomputed at Bind so per-ECU ranking needs only integer compares.
	ord int
}

type boundComp struct {
	name     string
	memoryKB int
	asil     model.ASIL
	// replicaOf/passive mirror the component's standby role: passive
	// standbys keep their protos (the fail-over analysis promotes them)
	// but contribute no normal-case load or schedulability demand,
	// matching AnalyzedLoad and taskset.Build.
	replicaOf string
	passive   bool
	// loadTerms holds WCETNominal/period per rated runnable, in runnable
	// order — AnalyzedLoad's summation terms before the speed division.
	loadTerms []float64
	// protos lists all runnables (rate-less included: they consume
	// priority ranks in the task set even though they are excluded from
	// the analysis).
	protos []protoTask
}

type boundECU struct {
	name     string
	speed    float64
	memoryKB int
	maxASIL  model.ASIL
	// buses lists the channels the ECU is attached to — the fault model's
	// bus-loss events treat an ECU with every channel lost as isolated.
	buses []string
}

type boundConn struct {
	from, to int // component indices of the endpoints
	// needsPath is true when the connector produces at least one bus route
	// once remote (client-server always does; sender-receiver only with a
	// non-empty element set).
	needsPath bool
}

// Bound is an Evaluator fixed to one system topology: the
// mapping-independent half of the search state, shared read-only by
// every Prepared of a search (AnnealParallel's chains included). The
// bound data reflects the topology and the evaluator's Cons at Bind
// time; candidates must differ from the base system in Mapping only (the
// DSE invariant: every candidate is the seed with components moved).
type Bound struct {
	ev    *Evaluator
	comps []boundComp
	ecus  []boundECU
	// ecuIdx/compIdx index comps/ecus by name; ecuByName lists the ECU
	// indices in name order, the order RTA violations are reported in.
	ecuIdx    map[string]int
	compIdx   map[string]int
	ecuByName []int
	conns     []boundConn
	// dist holds the harness distance and path vfb.Path's verdict (nil =
	// reachable) per ordered ECU index pair.
	dist [][]float64
	path [][]error
	// groups holds the replica groups of the topology; empty for systems
	// without standbys, where the fail-operational check is skipped.
	groups []redGroup
	// cons is the evaluator's Cons at Bind time, filled, and consErr its
	// Validate verdict: every score of the Bound reads them instead of
	// re-filling and re-validating per move.
	cons    Constraints
	consErr error
}

// Bind precomputes the mapping-independent derivations of sys. It fails
// with model.System.Validate's error when the base topology itself is
// invalid; the searches return that error as is.
func (ev *Evaluator) Bind(sys *model.System) (*Bound, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	b := &Bound{
		ev:      ev,
		cons:    ev.Cons,
		ecus:    bindECUs(sys),
		comps:   bindComps(sys),
		ecuIdx:  make(map[string]int, len(sys.ECUs)),
		compIdx: make(map[string]int, len(sys.Components)),
	}
	b.cons.fill()
	b.consErr = b.cons.Validate()
	for i := range b.ecus {
		b.ecuIdx[b.ecus[i].name] = i
	}
	for i := range b.comps {
		b.compIdx[b.comps[i].name] = i
	}
	b.ecuByName = byName(len(b.ecus), func(i int) string { return b.ecus[i].name })
	b.groups = redGroups(b.comps)
	// Validate guarantees every connector endpoint and port exists.
	for _, c := range sys.Connectors {
		prov := sys.Component(c.FromSWC).Port(c.FromPort)
		req := sys.Component(c.ToSWC).Port(c.ToPort)
		needs := prov.Interface.Kind != model.SenderReceiver || len(req.Interface.Elements) > 0
		b.conns = append(b.conns, boundConn{from: b.compIdx[c.FromSWC], to: b.compIdx[c.ToSWC], needsPath: needs})
	}
	n := len(sys.ECUs)
	b.dist, b.path = make([][]float64, n), make([][]error, n)
	for i, src := range sys.ECUs {
		b.dist[i], b.path[i] = make([]float64, n), make([]error, n)
		for j, dst := range sys.ECUs {
			b.dist[i][j] = math.Hypot(src.Position[0]-dst.Position[0], src.Position[1]-dst.Position[1])
			if i != j {
				_, _, _, b.path[i][j] = vfb.Path(sys, src.Name, dst.Name)
			}
		}
	}
	return b, nil
}

// byName lists the indices 0..n-1 sorted by name(i).
func byName(n int, name func(int) string) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return name(idx[i]) < name(idx[j]) })
	return idx
}

// bindECUs derives the mapping-independent per-ECU terms, in declaration
// order.
func bindECUs(sys *model.System) []boundECU {
	var ecus []boundECU
	for _, e := range sys.ECUs {
		ecus = append(ecus, boundECU{
			name: e.Name, speed: e.Speed, memoryKB: e.MemoryKB,
			maxASIL: e.MaxASIL, buses: e.Buses,
		})
	}
	return ecus
}

// bindComps derives the mapping-independent per-component terms — shared
// by Bind and by Evaluator.Evaluate's fail-operational check, so both
// see identical load terms and proto orderings. Passive standbys keep
// their loadTerms and protos — the fail-over absorption analysis charges
// them to the promotion target — but the normal-case accumulation loops
// skip them, matching AnalyzedLoad and taskset.Build.
func bindComps(sys *model.System) []boundComp {
	var comps []boundComp
	for _, c := range sys.Components {
		bc := boundComp{
			name: c.Name, memoryKB: c.MemoryKB, asil: c.ASIL,
			replicaOf: c.ReplicaOf, passive: c.PassiveStandby(),
		}
		for j := range c.Runnables {
			r := &c.Runnables[j]
			period := sys.EffectivePeriod(c, r)
			if period > 0 {
				bc.loadTerms = append(bc.loadTerms, float64(r.WCETNominal)/float64(period))
			}
			bc.protos = append(bc.protos, protoTask{
				name: c.Name + "." + r.Name, sortKey: c.Name + r.Name,
				wcet: r.WCETNominal, period: period, deadline: r.Deadline,
			})
		}
		comps = append(comps, bc)
	}
	// Rank all protos once in taskset.Build's (period, tie-break) order;
	// per-candidate ranking then reduces to sorting small int keys.
	var all []*protoTask
	for i := range comps {
		for j := range comps[i].protos {
			all = append(all, &comps[i].protos[j])
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].period != all[j].period {
			return all[i].period < all[j].period
		}
		return all[i].sortKey < all[j].sortKey
	})
	for ord, p := range all {
		p.ord = ord
	}
	return comps
}
