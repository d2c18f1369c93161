package deploy

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"autorte/internal/model"
	"autorte/internal/sim"
)

// The golden corpus pins the metrics of fixed random walks of single
// component moves. Each line of the corpus is one entry: a (system,
// constraint shape) walk, the step index and the move taken at that step
// (step 0 is the system's own mapping), and the Metrics the reference
// evaluator produced for the resulting mapping when the corpus was
// written. Both scorers — Evaluator.Evaluate on a cloned system and the
// Prepared delta path (EvaluateMove, Apply, Evaluate) — must reproduce
// every entry bit-identically, and the searches' moveCost must price
// every entry as its Metrics.Cost does. JSON round-trips float64 exactly, so the
// comparison is reflect.DeepEqual. Regenerate with
//
//	go test ./internal/deploy -run TestGoldenCorpus -update-golden
//
// only when a change to the metrics is intended.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_metrics.jsonl from Evaluator.Evaluate")

const goldenPath = "testdata/golden_metrics.jsonl"

// goldenSteps is the number of moves of every corpus walk.
const goldenSteps = 40

type goldenEntry struct {
	System  string  `json:"system"`
	Shape   string  `json:"shape"`
	Step    int     `json:"step"`
	Comp    string  `json:"comp,omitempty"`
	ECU     string  `json:"ecu,omitempty"`
	Metrics Metrics `json:"metrics"`
}

// goldenCase is one (system, constraint shape) walk of the corpus.
type goldenCase struct {
	system string
	shape  string
	cons   Constraints
	seed   uint64
}

// goldenCases covers the seed-1 demo vehicle under every shape of the
// delta-path tests plus reject-all, the replicated fixture under the
// redundancy and fault-model shapes, and a stressed vehicle whose walks
// reach unschedulable ECUs and unreachable connectors.
func goldenCases() []goldenCase {
	redLosses := []Loss{
		{Kind: LossECU, ECUs: []string{"e1"}},
		{Kind: LossECU, ECUs: []string{"e2", "e3"}},
		{Kind: LossBus, Buses: []string{"can0"}},
		{Kind: LossECUAndBus, ECUs: []string{"e3"}, Buses: []string{"can0"}},
	}
	return []goldenCase{
		{"demo", "default", Constraints{}, 7},
		{"demo", "tight", Constraints{MaxUtilization: 0.35}, 7},
		{"demo", "strict", Constraints{RespectASIL: true, RespectMemory: true}, 7},
		{"demo", "schedulable", Constraints{RequireSchedulable: true}, 7},
		{"demo", "everything", Constraints{MaxUtilization: 0.5, RespectASIL: true, RespectMemory: true, RequireSchedulable: true}, 7},
		{"demo", "reject-all", Constraints{MaxUtilization: RejectAllLoad}, 7},
		{"red", "default", Constraints{}, 3},
		{"red", "sched", Constraints{RequireSchedulable: true}, 3},
		{"red", "strict", Constraints{RespectASIL: true, RespectMemory: true, MaxASILSpread: 2}, 3},
		{"red", "tight", Constraints{MaxUtilization: 0.016}, 3},
		{"red", "kof2", Constraints{Faults: FaultModel{MaxConcurrent: 2}}, 14},
		{"red", "explicit", Constraints{Faults: FaultModel{MaxConcurrent: 2, Losses: redLosses}}, 14},
		{"red", "soft-singletons", Constraints{Faults: FaultModel{MaxConcurrent: 2, Soft: true, IncludeSingletons: true}}, 14},
		{"red", "sched-kof2", Constraints{RequireSchedulable: true, Faults: FaultModel{MaxConcurrent: 2}}, 14},
		{"stress", "default", Constraints{}, 5},
		{"stress", "schedulable", Constraints{MaxUtilization: 1, RequireSchedulable: true}, 5},
	}
}

func goldenSystem(t *testing.T, name string) *model.System {
	t.Helper()
	switch name {
	case "red":
		return redSystem(t)
	case "stress":
		return stressSystem(t)
	}
	return demoSystem(t)
}

// stressSystem is the demo vehicle under stress.
func stressSystem(t *testing.T) *model.System {
	t.Helper()
	return stress(t, demoSystem(t))
}

// stress reworks a generated vehicle so it reaches verdicts the plain
// vehicle never does: every ECU runs at a quarter speed, so crowded ECUs
// fail response-time analysis, and every third ECU sits on a second bus
// that no ECU bridges, so connectors between the two segments are
// unreachable.
func stress(t *testing.T, sys *model.System) *model.System {
	t.Helper()
	sys.Buses = append(sys.Buses, &model.Bus{Name: "can_aux", Kind: model.BusCAN, BitRate: 500000})
	for i, e := range sys.ECUs {
		e.Speed /= 4
		if i%3 == 2 {
			e.Buses = []string{"can_aux"}
		}
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// writeGolden walks every case through the reference evaluator and writes
// the corpus, one entry per line.
func writeGolden(t *testing.T) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, gc := range goldenCases() {
		cur := goldenSystem(t, gc.system)
		ev := NewEvaluator(gc.cons)
		r := sim.NewRand(gc.seed)
		e := goldenEntry{System: gc.system, Shape: gc.shape}
		for step := 0; step <= goldenSteps; step++ {
			if step > 0 {
				e.Comp = cur.Components[r.Intn(len(cur.Components))].Name
				e.ECU = cur.ECUs[r.Intn(len(cur.ECUs))].Name
				cur.Mapping[e.Comp] = e.ECU
			}
			e.Step, e.Metrics = step, ev.Evaluate(cur)
			if err := enc.Encode(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenCorpus(t *testing.T) {
	if *updateGolden {
		writeGolden(t)
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	for _, gc := range goldenCases() {
		var walk []goldenEntry
		for step := 0; step <= goldenSteps; step++ {
			var e goldenEntry
			if err := dec.Decode(&e); err != nil {
				t.Fatalf("%s/%s step %d: %v", gc.system, gc.shape, step, err)
			}
			if e.System != gc.system || e.Shape != gc.shape || e.Step != step {
				t.Fatalf("corpus entry %s/%s step %d, want %s/%s step %d",
					e.System, e.Shape, e.Step, gc.system, gc.shape, step)
			}
			walk = append(walk, e)
		}
		t.Run(gc.system+"/"+gc.shape, func(t *testing.T) {
			cur := goldenSystem(t, gc.system)
			ev := NewEvaluator(gc.cons)
			bound, err := ev.Bind(cur)
			if err != nil {
				t.Fatal(err)
			}
			prep, err := bound.Prepare(cur.Mapping)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range walk {
				if e.Step > 0 {
					if got := prep.EvaluateMove(e.Comp, e.ECU); !reflect.DeepEqual(got, e.Metrics) {
						t.Fatalf("step %d (%s -> %s): EvaluateMove diverges\ngolden: %+v\ngot:    %+v", e.Step, e.Comp, e.ECU, e.Metrics, got)
					}
					checkMoveCost(t, prep, e.Comp, e.ECU, e.Metrics)
					if err := prep.Apply(e.Comp, e.ECU); err != nil {
						t.Fatal(err)
					}
					cur.Mapping[e.Comp] = e.ECU
				}
				if got := ev.Evaluate(cur.Clone()); !reflect.DeepEqual(got, e.Metrics) {
					t.Fatalf("step %d: Evaluate diverges\ngolden: %+v\ngot:    %+v", e.Step, e.Metrics, got)
				}
				if got := prep.Evaluate(); !reflect.DeepEqual(got, e.Metrics) {
					t.Fatalf("step %d: Prepared.Evaluate diverges\ngolden: %+v\ngot:    %+v", e.Step, e.Metrics, got)
				}
				checkMoveCost(t, prep, "", "", e.Metrics)
				if !reflect.DeepEqual(prep.Mapping(), cur.Mapping) {
					t.Fatalf("step %d: incumbent mapping diverges from the walk", e.Step)
				}
			}
		})
	}
	if dec.More() {
		t.Fatal("corpus holds entries beyond the known walks")
	}
}
