package deploy

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"autorte/internal/model"
	"autorte/internal/sim"
)

// The fail-operational checks must be indistinguishable between the
// reference evaluator and the delta path on a replicated system: same
// Survivability float, same violation strings in the same order, through
// a random walk of single-component moves under every constraint shape.
func TestRedundantThreePathIdentity(t *testing.T) {
	base := redSystem(t)
	consSet := map[string]Constraints{
		"default": {},
		"sched":   {RequireSchedulable: true},
		"strict":  {RespectASIL: true, RespectMemory: true, MaxASILSpread: 2},
		"tight":   {MaxUtilization: 0.016},
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
			cur := base.Clone()
			r := sim.NewRand(3)
			for step := 0; step < 60; step++ {
				c := cur.Components[r.Intn(len(cur.Components))].Name
				e := cur.ECUs[r.Intn(len(cur.ECUs))].Name
				cand := cur.Clone()
				cand.Mapping[c] = e
				want := ev.Evaluate(cand)
				if got := prep.EvaluateMove(c, e); !reflect.DeepEqual(want, got) {
					t.Fatalf("step %d (%s->%s): delta diverges\nreference: %+v\ndelta:     %+v", step, c, e, want, got)
				}
				cur = cand
				if err := prep.Apply(c, e); err != nil {
					t.Fatalf("apply: %v", err)
				}
			}
		})
	}
}

// A fully fail-operational mapping scores Survivability 1 and stays
// feasible; the diagnostics trigger one by one as the mapping degrades.
func TestRedundancyViolations(t *testing.T) {
	cons := Constraints{}

	t.Run("fail-operational", func(t *testing.T) {
		m := Evaluate(redSystem(t), cons)
		if !m.Feasible || m.Survivability != 1 {
			t.Fatalf("baseline: %+v", m)
		}
	})

	t.Run("co-located", func(t *testing.T) {
		sys := redSystem(t)
		sys.Mapping["Ctrl#1"] = "e1" // onto the primary's ECU
		m := Evaluate(sys, cons)
		if m.Feasible {
			t.Fatalf("co-located replicas accepted: %+v", m)
		}
		joined := strings.Join(m.Violations, "; ")
		if !strings.Contains(joined, "replicas Ctrl and Ctrl#1 co-located on e1") {
			t.Fatalf("missing anti-affinity diagnostic: %v", m.Violations)
		}
		// e1's failure now takes the whole group down.
		if !strings.Contains(joined, "e1 failure leaves Ctrl with no standby on another ECU") {
			t.Fatalf("missing no-standby diagnostic: %v", m.Violations)
		}
		if m.Survivability != 0.5 {
			t.Fatalf("Survivability = %v, want 0.5 (e2's failure is still survived)", m.Survivability)
		}
	})

	t.Run("absorption-overload", func(t *testing.T) {
		// Normal-case loads: e1 = 0.025 (Sensor+Ctrl), e2 = 0.008 (Act;
		// the passive standby adds nothing). A cap of 0.026 admits the
		// normal case but not e2 absorbing Ctrl's 0.020 after e1 dies.
		sys := redSystem(t)
		m := Evaluate(sys, Constraints{MaxUtilization: 0.026})
		if m.Feasible {
			t.Fatalf("overloading fail-over accepted: %+v", m)
		}
		found := false
		for _, v := range m.Violations {
			if strings.Contains(v, "e1 failure overloads fail-over target e2") {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing absorption diagnostic: %v", m.Violations)
		}
		if m.Survivability != 0.5 {
			t.Fatalf("Survivability = %v, want 0.5", m.Survivability)
		}
	})

	t.Run("absorption-unschedulable", func(t *testing.T) {
		// Act holds its 150us deadline alone on e2 (R = 80us) but not once
		// the promoted 5ms controller outranks it: R = 100 + 80 = 180us.
		sys := redSystem(t)
		sys.Component("Act").Runnables[0].Deadline = sim.US(150)
		m := Evaluate(sys, Constraints{RequireSchedulable: true})
		if m.Feasible {
			t.Fatalf("unschedulable fail-over accepted: %+v", m)
		}
		found := false
		for _, v := range m.Violations {
			if strings.Contains(v, "e2 unschedulable after absorbing fail-over from e1") {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing fail-over RTA diagnostic: %v", m.Violations)
		}
	})
}

// MaxASILSpread bounds mixed-criticality co-location; negative is strict.
func TestMaxASILSpread(t *testing.T) {
	sys := redSystem(t)
	// e1 hosts Sensor (ASIL-B) and Ctrl (ASIL-D): spread 2.
	if m := Evaluate(sys, Constraints{MaxASILSpread: 2}); !m.Feasible {
		t.Fatalf("spread 2 under cap 2 rejected: %+v", m)
	}
	m := Evaluate(sys, Constraints{MaxASILSpread: 1})
	if m.Feasible {
		t.Fatalf("spread 2 under cap 1 accepted: %+v", m)
	}
	if !strings.Contains(strings.Join(m.Violations, "; "), "e1 co-locates ASIL-D with ASIL-B: ASIL spread 2 exceeds 1") {
		t.Fatalf("missing spread diagnostic: %v", m.Violations)
	}
	// Strict: even e2's ASIL-C actuator next to the ASIL-D standby is out.
	m = Evaluate(sys, Constraints{MaxASILSpread: -1})
	if m.Feasible {
		t.Fatalf("mixed ECU accepted under strict partition: %+v", m)
	}
}

// WAvail prices unavailability into the scalar cost.
func TestCostChargesUnavailability(t *testing.T) {
	obj := Objective{WECU: 1000, WAvail: 500}
	full := Metrics{Feasible: true, ECUs: 2, Survivability: 1}
	half := Metrics{Feasible: true, ECUs: 2, Survivability: 0.5}
	if d := half.Cost(obj) - full.Cost(obj); math.Abs(d-250) > 1e-9 {
		t.Fatalf("unavailability premium = %v, want 250", d)
	}
	if DefaultObjective().WAvail != 0 {
		t.Fatal("DefaultObjective must ignore availability for legacy studies")
	}
}

// Survivability accounting on a system without replicas: 1.0 everywhere,
// so legacy DSE costs are untouched by the new term.
func TestSurvivabilityWithoutReplicas(t *testing.T) {
	sys := redSpec() // spec not materialized: no standbys exist
	sys.Components[1].Redundancy = model.Redundancy{}
	m := Evaluate(sys, Constraints{})
	if !m.Feasible || m.Survivability != 1 {
		t.Fatalf("unreplicated system: %+v", m)
	}
}
