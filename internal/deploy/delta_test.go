package deploy

import (
	"reflect"
	"testing"

	"autorte/internal/sim"
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
