package core

import (
	"fmt"
	"maps"
	"reflect"
	"testing"

	"autorte/internal/model"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/workload"
)

// incrementalVehicle builds a deployed vehicle with real chain constraints
// and cross-domain traffic — every report section (ECUs, buses, chains)
// non-trivially populated.
func incrementalVehicle(t testing.TB) *model.System {
	t.Helper()
	sys, err := workload.GenerateVehicle(workload.VehicleSpec{
		ECUsPerDAS:       3,
		CrossDASLinks:    2,
		ChainConstraints: true,
		BusBitRate:       1_000_000,
	}, sim.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// mutate moves n random components to random ECUs (possibly their current
// one) and returns the new full mapping.
func mutate(sys *model.System, r *sim.Rand, n int) map[string]string {
	next := make(map[string]string, len(sys.Mapping))
	for c, e := range sys.Mapping {
		next[c] = e
	}
	for i := 0; i < n; i++ {
		comp := sys.Components[r.Intn(len(sys.Components))]
		next[comp.Name] = sys.ECUs[r.Intn(len(sys.ECUs))].Name
	}
	return next
}

func TestIncrementalMatchesFullVerify(t *testing.T) {
	sys := incrementalVehicle(t)
	opts := rte.Options{}
	inc, err := NewIncremental(NewPipeline(1), sys, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, got *Report) {
		t.Helper()
		want, err := NewPipeline(1).Verify(sys, nil, opts)
		if err != nil {
			t.Fatalf("%s: full verify: %v", step, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: incremental report diverges from full verify\n got: %+v\nwant: %+v", step, got, want)
		}
	}
	check("initial", inc.Report())

	r := sim.NewRand(99)
	for step := 0; step < 40; step++ {
		// Mostly single-entry moves (the DSE shape), some multi-moves, and
		// an occasional no-op pass.
		n := 1
		switch step % 8 {
		case 3:
			n = 2
		case 5:
			n = 3
		case 7:
			n = 0
		}
		got, err := inc.Reverify(mutate(sys, r, n))
		if err != nil {
			t.Fatalf("step %d: reverify: %v", step, err)
		}
		check(fmt.Sprintf("step %d (%d moves)", step, n), got)
	}
	recomputed, reused := inc.Stats()
	if recomputed == 0 || reused == 0 {
		t.Fatalf("stats: recomputed=%d reused=%d — the sweep should both reuse and recompute", recomputed, reused)
	}
	// Single-entry moves must not re-verify the whole system: over the
	// sweep, retained results must dominate recomputed ones.
	if reused < recomputed {
		t.Fatalf("stats: reused=%d < recomputed=%d — incremental layer recomputes too much", reused, recomputed)
	}
}

// TestIncrementalConsolidation drives the mapping far from the generated
// federated layout — piling components onto one ECU empties others, which
// must drop cleanly from the report.
func TestIncrementalConsolidation(t *testing.T) {
	sys := incrementalVehicle(t)
	opts := rte.Options{}
	inc, err := NewIncremental(NewPipeline(1), sys, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	target := sys.ECUs[0].Name
	next := make(map[string]string, len(sys.Mapping))
	for c := range sys.Mapping {
		next[c] = target
	}
	got, err := inc.Reverify(next)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.ECUs) != 1 || got.ECUs[0].Name != target {
		t.Fatalf("consolidated report should hold exactly ECU %s, got %d ECUs", target, len(got.ECUs))
	}
	if len(got.Buses) != 0 {
		t.Fatalf("fully local mapping should route no bus, got %d bus reports", len(got.Buses))
	}
	want, err := NewPipeline(1).Verify(sys, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("consolidated incremental report diverges from full verify")
	}
	// And back out again: the retained state must survive the round trip.
	back := make(map[string]string, len(sys.Mapping))
	for i, c := range sys.Components {
		back[c.Name] = sys.ECUs[i%len(sys.ECUs)].Name
	}
	got, err = inc.Reverify(back)
	if err != nil {
		t.Fatal(err)
	}
	want, err = NewPipeline(1).Verify(sys, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip incremental report diverges from full verify")
	}
}

func TestIncrementalRejectsUnknownComponent(t *testing.T) {
	sys := incrementalVehicle(t)
	inc, err := NewIncremental(NewPipeline(1), sys, nil, rte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := mutate(sys, sim.NewRand(1), 0)
	bad["ghost"] = sys.ECUs[0].Name
	if _, err := inc.Reverify(bad); err == nil {
		t.Fatal("mapping with an extra component should be rejected")
	}
	delete(bad, "ghost")
	delete(bad, sys.Components[0].Name)
	if _, err := inc.Reverify(bad); err == nil {
		t.Fatal("mapping missing a component should be rejected")
	}
}

// TestPassiveStandbyExcludedFromAnalysis pins the capacity model of
// passive standbys: suspended until a fail-over promotes them, they add no
// task to their hosting ECU's analysis — on the initial verification and
// after re-verifying moves of the standby, exactly as a fresh verify.
func TestPassiveStandbyExcludedFromAnalysis(t *testing.T) {
	sys, contracts := standbySystem(t)
	inc, err := NewIncremental(NewPipeline(1), sys, contracts, rte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, got *Report, wantECUs ...string) {
		t.Helper()
		var names []string
		for _, e := range got.ECUs {
			names = append(names, e.Name)
			for _, r := range e.Results {
				if r.Task.Name == "Ctrl#1.law" {
					t.Fatalf("%s: passive standby Ctrl#1 analyzed on %s (utilization %.3f)", step, e.Name, e.Utilization)
				}
			}
		}
		if !reflect.DeepEqual(names, wantECUs) {
			t.Fatalf("%s: analyzed ECUs %v, want %v", step, names, wantECUs)
		}
		want, err := NewPipeline(1).Verify(sys, contracts, rte.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: incremental report diverges from full verify\n got: %+v\nwant: %+v", step, got, want)
		}
	}
	check("initial", inc.Report(), "e1", "e2")
	for _, ecu := range []string{"e3", "e2"} {
		next := maps.Clone(sys.Mapping)
		next["Ctrl#1"] = ecu
		got, err := inc.Reverify(next)
		if err != nil {
			t.Fatal(err)
		}
		// A passive standby alone on e3 leaves e3 with no analyzable task.
		check("standby on "+ecu, got, "e1", "e2")
	}
}
