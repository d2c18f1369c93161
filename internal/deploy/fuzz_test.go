package deploy

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"autorte/internal/model"
	"autorte/internal/sim"
	"autorte/internal/workload"
)

// fuzzSystems caches the walked systems by golden-case system and
// vehicle seed: generation dominates a short walk, and the walk never
// mutates the base system.
var fuzzSystems = struct {
	sync.Mutex
	m map[string]*model.System
}{m: map[string]*model.System{}}

func fuzzSystem(t *testing.T, system string, seed uint64) *model.System {
	key := fmt.Sprintf("%s/%d", system, seed)
	fuzzSystems.Lock()
	defer fuzzSystems.Unlock()
	if sys, ok := fuzzSystems.m[key]; ok {
		return sys
	}
	sys := redSystem(t)
	if system != "red" {
		var err error
		sys, err = workload.GenerateVehicle(workload.VehicleSpec{}, sim.NewRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		if system == "stress" {
			stress(t, sys)
		}
	}
	fuzzSystems.m[key] = sys
	return sys
}

// FuzzPreparedMatchesEvaluate walks Prepared.EvaluateMove/Apply over
// fuzzed moves and asserts, at every step, DeepEqual metrics with the
// reference Evaluator.Evaluate on a cloned system carrying the moved
// mapping, and that the searches' moveCost equals the cost of those
// metrics (checkMoveCost). The shape byte picks a (system, constraint shape) case of the
// golden corpus; for the generated-vehicle cases the seed picks one of
// eight vehicles. Each pair of move bytes names a component and an
// ECU; the component byte's high bit also commits the move.
func FuzzPreparedMatchesEvaluate(f *testing.F) {
	cases := goldenCases()
	f.Fuzz(func(t *testing.T, seed uint64, shape byte, moves []byte) {
		gc := cases[int(shape)%len(cases)]
		base := fuzzSystem(t, gc.system, 1+seed%8)
		ev := NewEvaluator(gc.cons)
		bound, err := ev.Bind(base)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := bound.Prepare(base.Mapping)
		if err != nil {
			t.Fatal(err)
		}
		if len(moves) > 128 {
			moves = moves[:128]
		}
		for i := 0; i+1 < len(moves); i += 2 {
			comp := base.Components[int(moves[i]&0x7f)%len(base.Components)].Name
			ecu := base.ECUs[int(moves[i+1])%len(base.ECUs)].Name
			cand := base.Clone()
			cand.Mapping = prep.Mapping()
			cand.Mapping[comp] = ecu
			want := ev.Evaluate(cand)
			if got := prep.EvaluateMove(comp, ecu); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s move %d (%s -> %s): delta diverges\nreference: %+v\ndelta:     %+v",
					gc.system, gc.shape, i/2, comp, ecu, want, got)
			}
			checkMoveCost(t, prep, comp, ecu, want)
			if moves[i]&0x80 == 0 {
				continue
			}
			if err := prep.Apply(comp, ecu); err != nil {
				t.Fatal(err)
			}
			if got := prep.Evaluate(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s move %d (%s -> %s): incumbent diverges after Apply\nreference: %+v\ndelta:     %+v",
					gc.system, gc.shape, i/2, comp, ecu, want, got)
			}
			checkMoveCost(t, prep, "", "", want)
		}
	})
}
