package trace

import (
	"testing"

	"autorte/internal/sim"
)

// TestRecorderAddAllocs gates the record path: 65,536 Adds over a few
// sources grow Records by doubling and allocate once per new source
// row, so the total stays far below the ~1.25x growth of append.
func TestRecorderAddAllocs(t *testing.T) {
	sources := []string{"", "Sensor.sample", "Ctrl.law", "Act.apply", "can0/ctrl"}
	allocs := testing.AllocsPerRun(1, func() {
		r := &Recorder{}
		for i := 0; i < 65536; i++ {
			r.Add(Record{At: sim.Time(i), Kind: Kind(i % denseKinds), Source: sources[i%len(sources)], Job: int64(i)})
		}
	})
	if allocs > 20 {
		t.Fatalf("65536 Adds allocate %v times, want <= 20", allocs)
	}
}

// recordSources are the sources FuzzRecorderCounts draws from; the empty
// source adds to the all-sources counts only.
var recordSources = []string{"", "a", "b", "Sensor.sample", "can0/a"}

// FuzzRecorderCounts checks the count index against a linear rescan of
// Records after a fuzzed stream of Adds and Resets, for every Kind value
// (the dense ones and those beyond Recover) and every source, including
// the all-sources query and a source never recorded.
func FuzzRecorderCounts(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := &Recorder{}
		for i := 0; i+1 < len(stream); i += 2 {
			kb, sb := stream[i], stream[i+1]
			if sb == 0xff {
				r.Reset()
				checkCounts(t, r)
				continue
			}
			kind := Kind(kb % 12) // mostly dense kinds, some beyond Recover
			if kb >= 0xf0 {
				kind = Kind(kb)
			}
			r.Emit(sim.Time(i), kind, recordSources[int(sb)%len(recordSources)], int64(i), "")
		}
		checkCounts(t, r)
		r.Reset()
		if len(r.Records) != 0 {
			t.Fatalf("Reset left %d records", len(r.Records))
		}
		checkCounts(t, r)
	})
}

func checkCounts(t *testing.T, r *Recorder) {
	t.Helper()
	sources := append([]string{"never"}, recordSources...)
	for k := 0; k < 256; k++ {
		kind := Kind(k)
		for _, src := range sources {
			want := 0
			for _, rec := range r.Records {
				if rec.Kind == kind && (src == "" || rec.Source == src) {
					want++
				}
			}
			if got := r.Count(kind, src); got != want {
				t.Fatalf("Count(%v, %q) = %d, rescan of %d records gives %d", kind, src, got, len(r.Records), want)
			}
		}
	}
}
