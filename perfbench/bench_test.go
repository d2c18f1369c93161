package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the tests hold the output to.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny runs a workload at test size.
func tiny(name string, trace bool) options {
	return options{workload: name, seed: defaultSeed, seconds: 1, trace: trace, workers: 2,
		scale: 0.05, setups: 1, root: "..", log: io.Discard}
}

// checkMetrics asserts the result carries exactly the named metrics, each
// with its unit.
func checkMetrics(t *testing.T, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
		}
	}
}

func TestWorkloadsEmitEndToEndMetrics(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != 4 {
		t.Fatalf("BENCHMARK.json names %d workloads, want 4", len(s.Workloads))
	}
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := run(tiny(w.Name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res, s.EndToEnd)
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("metric %s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

func TestTracedRunEmitsPerLayerMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs profile and fold with go tool pprof")
	}
	s := loadSpec(t)
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := run(tiny(w.Name, true))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("failed=%d of %d", res.Failed, res.Attempted)
			}
			checkMetrics(t, res, s.PerLayer)
			for name, m := range res.Metrics {
				if strings.Contains(name, ".ns_per_") && !(m.Value > 0) {
					t.Errorf("unit metric %s = %v, want > 0", name, m.Value)
				}
			}
			o := tiny(w.Name, true)
			chrome, err := os.ReadFile(filepath.Join(o.outDir(), w.Name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(chrome), w.Name+" request") {
				t.Error("the Chrome trace holds no request span")
			}
		})
	}
}

// TestCorruptedOutputIsCounted falsifies one output per workload and
// expects the checks to count it as failed.
func TestCorruptedOutputIsCounted(t *testing.T) {
	for _, name := range []string{"drive", "verify", "explore", "campaign"} {
		t.Run(name, func(t *testing.T) {
			o := tiny(name, false)
			o.corrupt = true
			res, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed == 0 || res.Correct {
				t.Fatalf("corrupted output not counted: failed=%d of %d", res.Failed, res.Attempted)
			}
		})
	}
}

func TestOutputsAreSeedDeterministic(t *testing.T) {
	for _, name := range []string{"verify", "explore"} {
		a, b := tiny(name, false), tiny(name, false)
		a.seed, b.seed = 7, 7
		wa, _ := newWorkload(a)
		wb, _ := newWorkload(b)
		if err := wa.setup(); err != nil {
			t.Fatal(err)
		}
		if err := wb.setup(); err != nil {
			t.Fatal(err)
		}
		da, err := wa.reference(0, 2)
		if err != nil {
			t.Fatal(err)
		}
		db, err := wb.reference(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if da != db {
			t.Errorf("%s: same seed, different outputs", name)
		}
	}
}

func TestFoldTraces(t *testing.T) {
	text := `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.mallocgc
             autorte/internal/trace.(*Recorder).Add
             autorte/internal/osek.(*CPU).release
             main.main
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      50ms   crypto/sha256.block
             main.digestBytes
             autorte/internal/core.(*Pipeline).Verify
-----------+-------------------------------------------------------
    1.50ms   autorte/internal/noc.(*Mesh).route
`
	shares, err := foldTraces([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	total := 30 + 10 + 50 + 1.5
	want := map[string]float64{"trace": 30 / total, "runtime": 10 / total, "bench": 50 / total, "other": 1.5 / total}
	for m, v := range want {
		if d := shares[m] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s share %v, want %v", m, shares[m], v)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median %v", q)
	}
	if q := quantile(xs, 0.9); q < 4.59 || q > 4.61 {
		t.Errorf("p90 %v", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty %v", q)
	}
}
