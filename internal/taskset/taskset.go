// Package taskset derives the analyzable per-ECU task sets of a deployed
// component system, using the same priority assignment the RTE generator
// applies (event-driven runnables inherit their producer's rate; the
// resulting set is rate-monotonic). It sits below core so the deployment
// search can run the same schedulability analysis the verifier does,
// through the shared response-time cache.
package taskset

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"autorte/internal/model"
	"autorte/internal/sched"
	"autorte/internal/sim"
)

// Build derives the analyzable task set per ECU (see ECU). ECUs without an
// analyzable task are absent from the map. The output — including the
// warning order: sorted ECUs, each in analysis order — is deterministic
// for a given system.
func Build(sys *model.System) (map[string][]sched.Task, []string) {
	hosted := map[string][]*model.SWC{}
	for _, comp := range sys.Components {
		ecu := sys.Mapping[comp.Name]
		hosted[ecu] = append(hosted[ecu], comp)
	}
	ecus := make([]string, 0, len(hosted))
	for ecu := range hosted {
		ecus = append(ecus, ecu)
	}
	sort.Strings(ecus)
	out := map[string][]sched.Task{}
	var warnings []string
	for _, ecu := range ecus {
		tasks, warn := ECU(sys, ecu, hosted[ecu])
		if tasks != nil {
			out[ecu] = tasks
		}
		warnings = append(warnings, warn...)
	}
	return out, warnings
}

// ECU derives the analyzable task set of one ECU from the components it
// hosts, in declaration order. Event-driven runnables inherit the period
// of their triggering producer; runnables whose rate cannot be derived
// are skipped with a warning. Passive standby replicas are excluded
// entirely — suspended until a fail-over promotes them, they exert no
// demand in the normal case the analysis models (deploy's fail-over
// validity check analyzes the post-promotion sets). WCETs scale by the
// ECU's speed. tasks is nil when nothing is analyzable.
func ECU(sys *model.System, ecu string, comps []*model.SWC) (tasks []sched.Task, warnings []string) {
	type tinfo struct {
		comp *model.SWC
		run  *model.Runnable
		// period is precomputed so the sort below doesn't re-derive it
		// O(n log n) times; sortKey matches the RTE generator's tie-break
		// (name concatenation) exactly.
		period  sim.Duration
		sortKey string
	}
	n := 0
	for _, comp := range comps {
		n += len(comp.Runnables)
	}
	infos := make([]tinfo, 0, n)
	for _, comp := range comps {
		if comp.PassiveStandby() {
			continue
		}
		for i := range comp.Runnables {
			run := &comp.Runnables[i]
			infos = append(infos, tinfo{comp: comp, run: run, period: sys.EffectivePeriod(comp, run), sortKey: comp.Name + run.Name})
		}
	}
	speed := 1.0
	if e := sys.ECUByName(ecu); e != nil {
		speed = e.Speed
	}
	// Rate-monotonic on the derived rate, matching the RTE generator
	// exactly; rate-less runnables sort first (treated as urgent sporadic
	// handlers) but are excluded from the analysis below.
	slices.SortStableFunc(infos, func(a, b tinfo) int {
		if c := cmp.Compare(a.period, b.period); c != 0 {
			return c
		}
		return strings.Compare(a.sortKey, b.sortKey)
	})
	for rank, ti := range infos {
		if ti.period <= 0 {
			warnings = append(warnings, fmt.Sprintf("%s.%s: no derivable rate; excluded from analysis", ti.comp.Name, ti.run.Name))
			continue
		}
		if tasks == nil {
			tasks = make([]sched.Task, 0, len(infos)-rank)
		}
		tasks = append(tasks, sched.Task{
			Name:     ti.comp.Name + "." + ti.run.Name,
			C:        sim.Duration(float64(ti.run.WCETNominal) / speed),
			T:        ti.period,
			D:        ti.run.Deadline,
			Priority: 1000 - rank,
		})
	}
	return tasks, warnings
}
