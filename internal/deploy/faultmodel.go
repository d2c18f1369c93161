package deploy

// The k-of-n fault model behind the fail-operational analysis. PR 9's
// redCheck hard-coded the fault universe to "any single hosted ECU
// dies"; FaultModel generalizes it to explicit loss units (ECU sets,
// bus channels, correlated ECU+bus failures) and to any k of those
// units failing concurrently. The zero value reproduces the v1 sweep
// bit-exactly — same events, same violation strings, same
// Survivability fraction — so existing callers and the two-path
// DeepEqual identity are untouched.

import (
	"fmt"
	"strings"
)

// LossKind classifies one loss unit of the fault model.
type LossKind uint8

const (
	// LossECU takes down the named ECUs: their hosted instances stop.
	LossECU LossKind = iota
	// LossBus takes down the named bus channels: an ECU attached only
	// to lost channels is isolated, which the analysis treats as losing
	// its hosted instances (they run but cannot deliver).
	LossBus
	// LossECUAndBus is a correlated failure taking down both the named
	// ECUs and the named bus channels in one event (a power-domain or
	// connector-housing fault).
	LossECUAndBus
)

func (k LossKind) String() string {
	switch k {
	case LossECU:
		return "ecu"
	case LossBus:
		return "bus"
	case LossECUAndBus:
		return "ecu+bus"
	default:
		return fmt.Sprintf("LossKind(%d)", uint8(k))
	}
}

// Loss is one atomic loss unit: the hardware one fault event removes.
type Loss struct {
	Kind  LossKind
	ECUs  []string // required for LossECU and LossECUAndBus
	Buses []string // required for LossBus and LossECUAndBus
}

// FaultModel configures the survivability sweep of the fail-operational
// analysis. The zero value is PR 9's model: every single hosted ECU
// fails alone, and any uncovered event is a hard feasibility violation.
type FaultModel struct {
	// MaxConcurrent is k: the sweep covers every combination of up to k
	// loss units failing together. Values below 2 mean single failures
	// only (the v1 sweep).
	MaxConcurrent int
	// Losses enumerates the loss units. Empty means one LossECU unit
	// per hosted ECU, derived from the candidate mapping.
	Losses []Loss
	// Soft prices uncovered events through Survivability (and the
	// objective's WAvail term) instead of rejecting the mapping. Replica
	// anti-affinity and malformed Losses stay hard violations. This is
	// the setting automatic placement searches under: an unreplicated
	// seed must be scorable, not infeasible.
	Soft bool
	// IncludeSingletons scores unreplicated components as replica groups
	// of one, so every (event, component) pair an event kills without a
	// promotable standby counts against Survivability. This gives a
	// placement search a gradient from "nothing replicated" toward full
	// coverage; combine with Soft.
	IncludeSingletons bool
}

// lossEvent is one resolved fault event of the sweep: the label used in
// violation strings, the dead ECUs (by bound index) and the lost bus
// channels.
type lossEvent struct {
	label string
	dead  []bool
	buses map[string]bool
}

// lost reports whether the ECU at index ei is out of service under the
// event: dead outright, or attached to buses that are all lost.
func (e *lossEvent) lost(ecus []boundECU, ei int) bool {
	if e.dead[ei] {
		return true
	}
	if len(e.buses) == 0 || len(ecus[ei].buses) == 0 {
		return false
	}
	for _, b := range ecus[ei].buses {
		if !e.buses[b] {
			return false
		}
	}
	return true
}

// lossUnits resolves the fault model's atomic loss units against the
// bound topology. Malformed units (wrong fields for the kind, unknown
// names) append hard violations — a misconfigured fault model must not
// silently pass as "survived". With no explicit Losses the units are
// the v1 universe: one per hosted ECU, in ECU declaration order.
func (rc *redCheck) lossUnits(m *Metrics) []lossEvent {
	fm := rc.cons.Faults
	if len(fm.Losses) == 0 {
		var units []lossEvent
		for ei := range rc.ecus {
			if !rc.cand.acc(ei).hosts {
				continue
			}
			dead := make([]bool, len(rc.ecus))
			dead[ei] = true
			units = append(units, lossEvent{label: rc.ecus[ei].name, dead: dead})
		}
		return units
	}
	ecuIdx := make(map[string]int, len(rc.ecus))
	for i := range rc.ecus {
		ecuIdx[rc.ecus[i].name] = i
	}
	busKnown := map[string]bool{}
	for i := range rc.ecus {
		for _, b := range rc.ecus[i].buses {
			busKnown[b] = true
		}
	}
	bad := func(format string, args ...any) {
		m.Feasible = false
		m.Violations = append(m.Violations, fmt.Sprintf(format, args...))
	}
	var units []lossEvent
	for li, l := range fm.Losses {
		wantECUs, wantBuses := false, false
		switch l.Kind {
		case LossECU:
			wantECUs = true
		case LossBus:
			wantBuses = true
		case LossECUAndBus:
			wantECUs, wantBuses = true, true
		default:
			bad("fault model: loss %d has unknown kind %v", li, l.Kind)
			continue
		}
		if wantECUs != (len(l.ECUs) > 0) || wantBuses != (len(l.Buses) > 0) {
			bad("fault model: %v loss %d must name %s", l.Kind, li, lossWants(wantECUs, wantBuses))
			continue
		}
		ev := lossEvent{dead: make([]bool, len(rc.ecus)), buses: map[string]bool{}}
		ok := true
		for _, name := range l.ECUs {
			ei, known := ecuIdx[name]
			if !known {
				bad("fault model: loss %d names unknown ECU %q", li, name)
				ok = false
				continue
			}
			ev.dead[ei] = true
		}
		for _, name := range l.Buses {
			if !busKnown[name] {
				bad("fault model: loss %d names unknown bus %q", li, name)
				ok = false
				continue
			}
			ev.buses[name] = true
		}
		if !ok {
			continue
		}
		ev.label = strings.Join(append(append([]string{}, l.ECUs...), l.Buses...), "+")
		units = append(units, ev)
	}
	return units
}

func lossWants(ecus, buses bool) string {
	switch {
	case ecus && buses:
		return "ECUs and buses"
	case ecus:
		return "ECUs only"
	default:
		return "buses only"
	}
}

// lossEvents expands the loss units into the swept event set: every
// single unit, then every combination of 2..MaxConcurrent units in
// lexicographic unit order, labels joined with "+". Deterministic.
func (rc *redCheck) lossEvents(m *Metrics) []lossEvent {
	units := rc.lossUnits(m)
	events := append([]lossEvent{}, units...)
	k := rc.cons.Faults.MaxConcurrent
	if k > len(units) {
		k = len(units)
	}
	for size := 2; size <= k; size++ {
		idx := make([]int, size)
		for i := range idx {
			idx[i] = i
		}
		for {
			events = append(events, mergeUnits(units, idx, len(rc.ecus)))
			// Advance to the next lexicographic combination.
			i := size - 1
			for i >= 0 && idx[i] == len(units)-size+i {
				i--
			}
			if i < 0 {
				break
			}
			idx[i]++
			for j := i + 1; j < size; j++ {
				idx[j] = idx[j-1] + 1
			}
		}
	}
	return events
}

// mergeUnits unions the selected loss units into one concurrent event.
func mergeUnits(units []lossEvent, idx []int, necus int) lossEvent {
	ev := lossEvent{dead: make([]bool, necus), buses: map[string]bool{}}
	labels := make([]string, 0, len(idx))
	for _, ui := range idx {
		u := &units[ui]
		labels = append(labels, u.label)
		for ei, d := range u.dead {
			if d {
				ev.dead[ei] = true
			}
		}
		for b := range u.buses {
			ev.buses[b] = true
		}
	}
	ev.label = strings.Join(labels, "+")
	return ev
}

// effectiveGroups is the replica-group set the sweep scores: the
// materialized groups, plus (under IncludeSingletons) every unreplicated
// primary as a group of one, in component declaration order.
func (rc *redCheck) effectiveGroups() []redGroup {
	if !rc.cons.Faults.IncludeSingletons {
		return rc.groups
	}
	standbys := make(map[int][]int, len(rc.groups))
	for _, g := range rc.groups {
		standbys[g.primary] = g.standbys
	}
	var groups []redGroup
	for ci := range rc.comps {
		if rc.comps[ci].replicaOf != "" {
			continue
		}
		groups = append(groups, redGroup{primary: ci, standbys: standbys[ci]})
	}
	return groups
}
