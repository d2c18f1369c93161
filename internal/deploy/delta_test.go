package deploy

import (
	"math"
	"reflect"
	"testing"

	"autorte/internal/sim"
	"autorte/internal/workload"
)

// The delta evaluator must reproduce the reference Evaluator.Evaluate on
// the moved system exactly — same feasibility, same violation strings in
// the same order, bit-identical cost terms — for every scored move, across
// constraint shapes and as the incumbent advances through applied moves.
func TestPreparedEvaluateMoveMatchesBoundEvaluate(t *testing.T) {
	base := demoSystem(t)
	consSet := map[string]Constraints{
		"default":     {},
		"tight":       {MaxUtilization: 0.35},
		"strict":      {RespectASIL: true, RespectMemory: true},
		"schedulable": {RequireSchedulable: true},
		"everything":  {MaxUtilization: 0.5, RespectASIL: true, RespectMemory: true, RequireSchedulable: true},
	}
	for name, cons := range consSet {
		t.Run(name, func(t *testing.T) {
			ev := NewEvaluator(cons)
			bound, err := ev.Bind(base)
			if err != nil {
				t.Fatalf("bind: %v", err)
			}
			prep, err := bound.Prepare(base.Mapping)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			r := sim.NewRand(11)
			for step := 0; step < 60; step++ {
				comp := base.Components[r.Intn(len(base.Components))].Name
				ecu := base.ECUs[r.Intn(len(base.ECUs))].Name
				cand := base.Clone()
				cand.Mapping = prep.Mapping()
				cand.Mapping[comp] = ecu
				want := ev.Evaluate(cand)
				got := prep.EvaluateMove(comp, ecu)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("step %d (%s -> %s): delta metrics diverge\nreference: %+v\ndelta:     %+v", step, comp, ecu, want, got)
				}
				// Advance the incumbent on every third step so both paths
				// walk the same trajectory.
				if step%3 == 0 {
					if err := prep.Apply(comp, ecu); err != nil {
						t.Fatalf("apply: %v", err)
					}
					if in := prep.Evaluate(); !reflect.DeepEqual(want, in) {
						t.Fatalf("step %d: incumbent evaluation diverges after apply", step)
					}
				}
			}
		})
	}
}

// Score-only calls must be safe to fan out concurrently over one shared
// incumbent — the parallel steepest-descent shape.
func TestPreparedEvaluateMoveConcurrent(t *testing.T) {
	base := demoSystem(t)
	ev := NewEvaluator(Constraints{RequireSchedulable: true})
	bound, err := ev.Bind(base)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := bound.Prepare(base.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	type move struct{ comp, ecu string }
	var moves []move
	var want []Metrics
	for _, c := range base.Components {
		for _, e := range base.ECUs[:4] {
			cand := base.Clone()
			cand.Mapping[c.Name] = e.Name
			moves = append(moves, move{c.Name, e.Name})
			want = append(want, ev.Evaluate(cand))
		}
	}
	done := make(chan int, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			bad := -1
			for i := g; i < len(moves); i += 8 {
				if got := prep.EvaluateMove(moves[i].comp, moves[i].ecu); !reflect.DeepEqual(got, want[i]) {
					bad = i
					break
				}
			}
			done <- bad
		}(g)
	}
	for g := 0; g < 8; g++ {
		if bad := <-done; bad != -1 {
			t.Fatalf("concurrent EvaluateMove diverged on move %d (%s -> %s)", bad, moves[bad].comp, moves[bad].ecu)
		}
	}
}

func TestPreparedRejectsIncompleteMapping(t *testing.T) {
	base := demoSystem(t)
	ev := NewEvaluator(Constraints{})
	bound, err := ev.Bind(base)
	if err != nil {
		t.Fatal(err)
	}
	partial := cloneMapping(base.Mapping)
	delete(partial, base.Components[0].Name)
	if _, err := bound.Prepare(partial); err == nil {
		t.Fatal("prepare should reject a mapping missing a component")
	}
	stray := cloneMapping(base.Mapping)
	stray["ghost"] = base.ECUs[0].Name
	if _, err := bound.Prepare(stray); err == nil {
		t.Fatal("prepare should reject a mapping with stray entries")
	}
	unknown := cloneMapping(base.Mapping)
	unknown[base.Components[0].Name] = "no-such-ecu"
	if _, err := bound.Prepare(unknown); err == nil {
		t.Fatal("prepare should reject a mapping onto an unknown ECU")
	}
	prep, err := bound.Prepare(base.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	if err := prep.Apply(base.Components[0].Name, "no-such-ecu"); err == nil {
		t.Fatal("apply onto an unknown ECU should error")
	}
	if err := prep.Apply("ghost", base.ECUs[0].Name); err == nil {
		t.Fatal("apply of an unknown component should error")
	}
	if !reflect.DeepEqual(prep.Mapping(), base.Mapping) {
		t.Fatal("rejected applies changed the incumbent")
	}
}

// A move naming an unknown component or ECU is infeasible with exactly
// the violation model.System.Validate reports for the moved mapping, and
// leaves the incumbent untouched.
func TestEvaluateMoveUnknownNamesMatchValidate(t *testing.T) {
	base := demoSystem(t)
	bound, err := NewEvaluator(Constraints{RequireSchedulable: true}).Bind(base)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := bound.Prepare(base.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	want := prep.Evaluate()
	comp, ecu := base.Components[0].Name, base.ECUs[0].Name
	for _, mv := range [][2]string{
		{"ghost", ecu},
		{comp, "no-such-ecu"},
		{"ghost", "no-such-ecu"},
	} {
		cand := base.Clone()
		cand.Mapping[mv[0]] = mv[1]
		verr := cand.Validate()
		if verr == nil {
			t.Fatalf("%s -> %s: Validate accepted the moved mapping", mv[0], mv[1])
		}
		got := prep.EvaluateMove(mv[0], mv[1])
		if got.Feasible || !reflect.DeepEqual(got.Violations, []string{verr.Error()}) {
			t.Fatalf("%s -> %s: got %+v, want infeasible with %q", mv[0], mv[1], got, verr)
		}
	}
	if got := prep.Evaluate(); !reflect.DeepEqual(got, want) {
		t.Fatal("scoring unknown moves changed the incumbent")
	}
}

// Without RequireSchedulable no evaluation reads a response-time verdict,
// so a search must not run (or cache) a single analysis.
func TestDescendWithoutRTASkipsAnalysis(t *testing.T) {
	ev := NewEvaluator(Constraints{})
	if _, err := DescendWith(ev, demoSystem(t), DefaultObjective(), 2, 4); err != nil {
		t.Fatal(err)
	}
	if n, _ := ev.SearchCounts(); n == 0 {
		t.Fatal("descent scored no moves")
	}
	if hits, misses := ev.RTA.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("RTA cache saw %d hits and %d misses under Constraints{}", hits, misses)
	}
}

// costObjectives are the objectives the cost-equivalence gate prices
// every scored mapping under: the default, and one charging
// unavailability, so the replicated and fault-model shapes price
// Survivability too.
var costObjectives = []Objective{
	DefaultObjective(),
	{WECU: 1000, WHarness: 10, WLoad: 1, WAvail: 500},
}

// checkMoveCost asserts that the search cost of moving comp to ecu
// (empty comp: the incumbent itself) equals the cost of the full
// metrics want, under every cost objective.
func checkMoveCost(t *testing.T, p *Prepared, comp, ecu string, want Metrics) {
	t.Helper()
	ci, ei := -1, -1
	if comp != "" {
		var err error
		if ci, ei, err = p.b.indices(comp, ecu); err != nil {
			t.Fatal(err)
		}
	}
	for _, obj := range costObjectives {
		if got, w := p.moveCost(ci, ei, obj), want.Cost(obj); got != w {
			t.Fatalf("move %s -> %s under %+v: moveCost %v, metrics cost %v (%+v)", comp, ecu, obj, got, w, want)
		}
	}
}

// A Bound whose constraints fail Validate scores every mapping exactly as
// Evaluator.Evaluate does: infeasible with the one validation violation,
// at +Inf cost.
func TestPreparedInvalidConstraints(t *testing.T) {
	base := demoSystem(t)
	comp, ecu := base.Components[0].Name, base.ECUs[1].Name
	for _, cons := range []Constraints{
		{MaxUtilization: math.NaN()},
		{MaxUtilization: 1.5, RequireSchedulable: true},
	} {
		ev := NewEvaluator(cons)
		want := ev.Evaluate(base)
		if want.Feasible || len(want.Violations) != 1 || want.Violations[0] != cons.Validate().Error() {
			t.Fatalf("%+v: reference %+v, want the one Validate violation", cons, want)
		}
		bound, err := ev.Bind(base)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := bound.Prepare(base.Mapping)
		if err != nil {
			t.Fatal(err)
		}
		if got := prep.Evaluate(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: Prepared.Evaluate %+v, want %+v", cons, got, want)
		}
		if got := prep.EvaluateMove(comp, ecu); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: EvaluateMove %+v, want %+v", cons, got, want)
		}
		ci, ei, _ := bound.indices(comp, ecu)
		for _, c := range [][2]int{{-1, -1}, {ci, ei}} {
			if cost := prep.moveCost(c[0], c[1], DefaultObjective()); !math.IsInf(cost, 1) {
				t.Fatalf("%+v: moveCost%v = %v, want +Inf", cons, c, cost)
			}
		}
	}
}

// descendEvaluated and descendAccepted are the SearchCounts of
// TestDescendSearchCounts' search as counted one job at a time, before
// DescendWith counted once per round.
const descendEvaluated, descendAccepted = 1716, 4

// DescendWith counts every scored candidate once per round, to the same
// totals per-job counting reported.
func TestDescendSearchCounts(t *testing.T) {
	ev := NewEvaluator(Constraints{RequireSchedulable: true})
	if _, err := DescendWith(ev, demoSystem(t), DefaultObjective(), 2, 4); err != nil {
		t.Fatal(err)
	}
	if n, a := ev.SearchCounts(); n != descendEvaluated || a != descendAccepted {
		t.Fatalf("SearchCounts = (%d, %d), want (%d, %d)", n, a, descendEvaluated, descendAccepted)
	}
}

// warmMove prepares the Greedy-consolidated demo vehicle under
// RequireSchedulable and returns a feasible move whose two dirty ECUs
// both keep analyzable task sets, with its memo slots and RTA cache
// entries warm.
func warmMove(t testing.TB) (ev *Evaluator, p *Prepared, ci, ei int) {
	cons := Constraints{RequireSchedulable: true}
	sys, err := workload.GenerateVehicle(workload.VehicleSpec{}, sim.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	g, err := Greedy(sys, cons)
	if err != nil {
		t.Fatal(err)
	}
	ev = NewEvaluator(cons)
	bound, err := ev.Bind(g)
	if err != nil {
		t.Fatal(err)
	}
	if p, err = bound.Prepare(g.Mapping); err != nil {
		t.Fatal(err)
	}
	p.Evaluate()
	for ci = range bound.comps {
		oi := p.curIdx[ci]
		if len(p.hosted[oi]) < 2 {
			continue
		}
		for ei = range bound.ecus {
			if ei != oi && len(p.hosted[ei]) > 0 && !math.IsInf(p.moveCost(ci, ei, DefaultObjective()), 1) {
				return ev, p, ci, ei
			}
		}
	}
	t.Fatal("no feasible move between two busy ECUs")
	return
}

// moveCost allocates nothing on a warm Prepared, whether the dirty ECUs'
// verdicts come from the memo rows or, with the rows dropped, from the
// response-time cache.
func TestMoveCostAllocs(t *testing.T) {
	ev, p, ci, ei := warmMove(t)
	oi, obj := p.curIdx[ci], DefaultObjective()
	if n := testing.AllocsPerRun(100, func() { p.moveCost(ci, ei, obj) }); n != 0 {
		t.Errorf("memo hit: %v allocs per moveCost, want 0", n)
	}
	h0, m0 := ev.RTA.Stats()
	const runs = 100
	n := testing.AllocsPerRun(runs, func() {
		p.dropRow(oi)
		p.dropRow(ei)
		p.moveCost(ci, ei, obj)
	})
	if n != 0 && !raceEnabled {
		t.Errorf("RTA-cache hit: %v allocs per moveCost, want 0", n)
	}
	// AllocsPerRun makes one warm-up call before the measured runs; each
	// call analyzes both dirty ECUs through the cache.
	if h1, m1 := ev.RTA.Stats(); h1-h0 != 2*(runs+1) || m1 != m0 {
		t.Fatalf("RTA cache saw %d hits and %d misses, want %d hits and none", h1-h0, m1-m0, 2*(runs+1))
	}
}

// BenchmarkPreparedMoveCost scores every single-component move of the
// Greedy-consolidated demo vehicle under RequireSchedulable through the
// searches' scorer. memo re-scores against one warm incumbent (a Descend
// round after the first); cold prepares a fresh incumbent per pass, so
// every dirty-ECU verdict is a response-time cache hit.
func BenchmarkPreparedMoveCost(b *testing.B) {
	_, p, _, _ := warmMove(b)
	obj := DefaultObjective()
	type move struct{ ci, ei int }
	var moves []move
	for ci := range p.b.comps {
		for ei := range p.b.ecus {
			if p.curIdx[ci] != ei {
				moves = append(moves, move{ci, ei})
			}
		}
	}
	for _, mv := range moves {
		p.moveCost(mv.ci, mv.ei, obj)
	}
	b.Run("memo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, mv := range moves {
				p.moveCost(mv.ci, mv.ei, obj)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(moves)), "ns/move")
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh, err := p.b.Prepare(p.cur)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, mv := range moves {
				fresh.moveCost(mv.ci, mv.ei, obj)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(moves)), "ns/move")
	})
}
