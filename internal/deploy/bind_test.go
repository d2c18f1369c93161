package deploy

import (
	"strings"
	"testing"

	"autorte/internal/model"
	"autorte/internal/sim"
	"autorte/internal/workload"
)

func demoSystem(t *testing.T) *model.System {
	t.Helper()
	sys, err := workload.GenerateVehicle(workload.VehicleSpec{}, sim.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// Degenerate mappings — an unmapped component, a mapping onto an unknown
// ECU — are infeasible under the reference evaluator, and Prepare refuses
// them, so no search scores them through the delta path.
func TestBoundEvaluateDegenerateMappings(t *testing.T) {
	base := demoSystem(t)
	ev := NewEvaluator(Constraints{RequireSchedulable: true})
	bound, err := ev.Bind(base)
	if err != nil {
		t.Fatal(err)
	}

	unmapped := base.Clone()
	delete(unmapped.Mapping, unmapped.Components[0].Name)
	if m := ev.Evaluate(unmapped); m.Feasible {
		t.Fatalf("unmapped component should be infeasible: %+v", m)
	}
	if _, err := bound.Prepare(unmapped.Mapping); err == nil {
		t.Fatal("prepare accepted an unmapped component")
	}

	ghost := base.Clone()
	ghost.Mapping[ghost.Components[0].Name] = "no-such-ecu"
	if m := ev.Evaluate(ghost); m.Feasible {
		t.Fatalf("unknown-ECU mapping should be infeasible: %+v", m)
	}
	if _, err := bound.Prepare(ghost.Mapping); err == nil {
		t.Fatal("prepare accepted a mapping onto an unknown ECU")
	}
}

// Bind must refuse an invalid base topology with the validation error, so
// the searches report it instead of a misleading packing failure.
func TestBindRejectsInvalidTopology(t *testing.T) {
	sys := demoSystem(t)
	sys.ECUs[0].Speed = 0
	if _, err := NewEvaluator(Constraints{}).Bind(sys); err == nil {
		t.Fatal("Bind accepted an invalid topology")
	}
}

// Every search binds once and returns Bind's validation error on an
// invalid topology — never a panic, never the Greedy bootstrap's
// unrelated "cannot place" error.
func TestSearchesRejectInvalidTopology(t *testing.T) {
	obj := DefaultObjective()
	for _, tc := range []struct {
		name   string
		search func(*model.System) (*model.System, error)
	}{
		{"Descend", func(sys *model.System) (*model.System, error) {
			return Descend(sys, Constraints{}, obj, 2, 4)
		}},
		{"Anneal", func(sys *model.System) (*model.System, error) {
			return Anneal(sys, Constraints{}, obj, 1, 100)
		}},
		{"AnnealParallel", func(sys *model.System) (*model.System, error) {
			return AnnealParallel(sys, Constraints{}, obj, 1, 100, 3, 2)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := demoSystem(t)
			sys.ECUs[0].Speed = 0
			out, err := tc.search(sys)
			if err == nil {
				t.Fatalf("search accepted an invalid topology: %v", out.Mapping)
			}
			if !strings.Contains(err.Error(), "non-positive speed") || strings.Contains(err.Error(), "cannot place") {
				t.Fatalf("error %q, want the topology's validation error", err)
			}
		})
	}
}
