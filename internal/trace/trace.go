// Package trace records timed events emitted by the simulated platform and
// reduces them to the latency, jitter and deadline statistics the
// experiments report.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"autorte/internal/sim"
)

// Kind classifies a trace record.
type Kind uint8

// Record kinds, covering the task lifecycle, message transmission and
// fault handling.
const (
	Activate Kind = iota // job released / message queued
	Start                // first got the resource
	Preempt              // lost the resource before finishing
	Resume               // got the resource back
	Finish               // completed
	Abort                // killed (budget exhaustion, fault)
	Miss                 // deadline passed before Finish
	Drop                 // discarded before transmission/start
	Error                // fault detected / error reported
	Recover              // recovery action performed (restart, reset, degrade)
)

var kindNames = [...]string{"activate", "start", "preempt", "resume", "finish", "abort", "miss", "drop", "error", "recover"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindMask is a bit set of record kinds, for selective sinks.
type KindMask uint16

// MaskOf builds a mask containing the given kinds.
func MaskOf(kinds ...Kind) KindMask {
	var m KindMask
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// Has reports whether k is in the mask.
func (m KindMask) Has(k Kind) bool { return m&(1<<k) != 0 }

// Record is one trace entry.
type Record struct {
	At     sim.Time
	Kind   Kind
	Source string // task, message or component name
	Job    int64  // per-source job/instance counter
	Info   string // optional detail (e.g. fault kind)
}

// Recorder accumulates records. The zero value is ready to use. A nil
// *Recorder is valid and discards everything, so substrates can trace
// unconditionally.
//
//autovet:nilsafe
type Recorder struct {
	Records []Record

	// Sink, when set, observes records as they are added — the feed of
	// the flight recorder's span ring. It runs on the kernel goroutine;
	// it must not call back into the recorder.
	Sink func(Record)

	// SinkKinds restricts Sink to the masked kinds (MaskOf). Zero means
	// every kind. The mask is checked before the indirect call, which is
	// what keeps a selective sink off the per-record hot path: Add runs
	// for every activation and completion the platform makes.
	SinkKinds KindMask

	// The count index behind Count, maintained by Add; callers must not
	// append to Records directly. Supervision and health monitors poll
	// counts every window, which would otherwise rescan the whole trace
	// each time. sources maps each non-empty source to its row in rows,
	// a dense per-kind counter array, so Add does one string lookup and
	// Count("") none: totals holds the all-sources count per kind. The
	// platform only emits kinds up to Recover; any later Kind value is
	// counted exactly in rare, keyed by kind and row (-1 for the total).
	sources map[string]int32
	rows    [][denseKinds]int
	totals  [denseKinds]int
	rare    map[rareKey]int
}

// denseKinds is the number of kinds with a dense counter slot.
const denseKinds = int(Recover) + 1

// rareKey indexes the counters of kinds beyond Recover.
type rareKey struct {
	kind Kind
	row  int32
}

// minRecords is the first capacity Add gives Records.
const minRecords = 64

// Add appends a record. Safe on a nil receiver (no-op).
func (r *Recorder) Add(rec Record) {
	if r == nil {
		return
	}
	if len(r.Records) == cap(r.Records) {
		// Double explicitly: append's ~1.25x step for large slices copies
		// each retained record about four times on average, doubling
		// about once.
		grown := make([]Record, len(r.Records), max(2*cap(r.Records), minRecords))
		copy(grown, r.Records)
		r.Records = grown
	}
	r.Records = append(r.Records, rec)
	r.count(rec.Kind, rec.Source)
	if r.Sink != nil && (r.SinkKinds == 0 || r.SinkKinds.Has(rec.Kind)) {
		r.Sink(rec)
	}
}

// count bumps the all-sources and, for a non-empty source, the
// per-source counter of kind.
func (r *Recorder) count(kind Kind, source string) {
	row := int32(-1)
	if source != "" {
		i, ok := r.sources[source]
		if !ok {
			if r.sources == nil {
				r.sources = map[string]int32{}
			}
			i = int32(len(r.rows))
			r.sources[source] = i
			r.rows = append(r.rows, [denseKinds]int{})
		}
		row = i
	}
	if int(kind) < denseKinds {
		r.totals[kind]++
		if row >= 0 {
			r.rows[row][kind]++
		}
		return
	}
	if r.rare == nil {
		r.rare = map[rareKey]int{}
	}
	r.rare[rareKey{kind, -1}]++
	if row >= 0 {
		r.rare[rareKey{kind, row}]++
	}
}

// Emit is shorthand for Add. Safe on a nil receiver (no-op).
func (r *Recorder) Emit(at sim.Time, kind Kind, source string, job int64, info string) {
	if r == nil {
		return
	}
	r.Add(Record{At: at, Kind: kind, Source: source, Job: job, Info: info})
}

// Reset discards all records, keeping capacity.
func (r *Recorder) Reset() {
	if r != nil {
		r.Records = r.Records[:0]
		clear(r.sources)
		r.rows = r.rows[:0]
		r.totals = [denseKinds]int{}
		r.rare = nil
	}
}

// BySource returns the records of one source, in order.
func (r *Recorder) BySource(source string) []Record {
	if r == nil {
		return nil
	}
	var out []Record
	for _, rec := range r.Records {
		if rec.Source == source {
			out = append(out, rec)
		}
	}
	return out
}

// Count returns how many records of the given kind a source produced.
// An empty source matches all sources. O(1): counts are maintained
// incrementally by Add, so per-window supervision polls stay cheap no
// matter how long the trace grows.
func (r *Recorder) Count(kind Kind, source string) int {
	if r == nil {
		return 0
	}
	row := int32(-1)
	if source != "" {
		i, ok := r.sources[source]
		if !ok {
			return 0
		}
		row = i
	}
	if int(kind) >= denseKinds {
		return r.rare[rareKey{kind, row}]
	}
	if row < 0 {
		return r.totals[kind]
	}
	return r.rows[row][kind]
}

// WriteCSV writes all records as CSV. Safe on a nil receiver (writes
// the header only).
func (r *Recorder) WriteCSV(w io.Writer) error {
	if r == nil {
		r = &Recorder{}
	}
	if _, err := io.WriteString(w, "time_ns,kind,source,job,info\n"); err != nil {
		return err
	}
	for _, rec := range r.Records {
		info := strings.ReplaceAll(rec.Info, ",", ";")
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%d,%s\n", int64(rec.At), rec.Kind, rec.Source, rec.Job, info); err != nil {
			return err
		}
	}
	return nil
}

// Latencies pairs Activate with the matching Finish per (source, job) and
// returns finish − activate for every completed job of the source, in job
// order. Jobs that never finished are skipped.
func (r *Recorder) Latencies(source string) []sim.Duration {
	if r == nil {
		return nil
	}
	act := map[int64]sim.Time{}
	var done []struct {
		job int64
		lat sim.Duration
	}
	for _, rec := range r.Records {
		if rec.Source != source {
			continue
		}
		switch rec.Kind {
		case Activate:
			act[rec.Job] = rec.At
		case Finish:
			if a, ok := act[rec.Job]; ok {
				done = append(done, struct {
					job int64
					lat sim.Duration
				}{rec.Job, rec.At - a})
				delete(act, rec.Job)
			}
		default:
			// Only the Activate->Finish pair defines latency; scheduling
			// detail in between does not move either endpoint.
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].job < done[j].job })
	out := make([]sim.Duration, len(done))
	for i, d := range done {
		out[i] = d.lat
	}
	return out
}
