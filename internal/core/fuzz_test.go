package core

import (
	"maps"
	"reflect"
	"testing"
)

// FuzzReverifyMatchesFresh walks one Incremental through fuzzed moves and
// asserts, after every Reverify, a report DeepEqual to a fresh
// Pipeline.Verify — sequential and on four workers — of a clone carrying
// the same mapping, or the same error. The shape byte picks a fixture of
// the golden corpus (the passive-standby fixture included, whose standby
// moves like any component). Each pair of move bytes names a component
// and an ECU; the component byte's high bit batches the move with the
// next one into a single Reverify.
func FuzzReverifyMatchesFresh(f *testing.F) {
	cases := goldenCases()
	f.Fuzz(func(t *testing.T, shape byte, moves []byte) {
		gc := cases[int(shape)%len(cases)]
		fx := goldenSystem(t, gc.system)
		inc, err := NewIncremental(NewPipeline(1), fx.sys, fx.contracts, fx.opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(moves) > 64 {
			moves = moves[:64]
		}
		next := maps.Clone(fx.sys.Mapping)
		for i := 0; i+1 < len(moves); i += 2 {
			comp := fx.sys.Components[int(moves[i]&0x7f)%len(fx.sys.Components)].Name
			next[comp] = fx.sys.ECUs[int(moves[i+1])%len(fx.sys.ECUs)].Name
			if moves[i]&0x80 != 0 && i+3 < len(moves) {
				continue
			}
			got, gotErr := inc.Reverify(next)
			cand := fx.sys.Clone()
			cand.Mapping = next
			for _, workers := range []int{1, 4} {
				want, wantErr := NewPipeline(workers).Verify(cand, fx.contracts, fx.opts)
				if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
					t.Fatalf("%s move %d: reverify error %v, fresh verify (%d workers) error %v", gc.system, i/2, gotErr, workers, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s move %d: reverify diverges from fresh verify (%d workers)\n got: %+v\nwant: %+v", gc.system, i/2, workers, got, want)
				}
			}
			next = maps.Clone(fx.sys.Mapping)
		}
	})
}
