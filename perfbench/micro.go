package main

import (
	"fmt"
	"sort"
	"time"

	"autorte/internal/can"
	"autorte/internal/com"
	"autorte/internal/core"
	"autorte/internal/deploy"
	"autorte/internal/e2eprot"
	"autorte/internal/flexray"
	"autorte/internal/model"
	"autorte/internal/obs"
	"autorte/internal/rte"
	"autorte/internal/sched"
	"autorte/internal/sim"
	"autorte/internal/trace"
	"autorte/internal/vfb"
)

// microTier is the unit tier: each metric times one module's public
// function on inputs taken from the workload's own vehicles.
func microTier(w stream, o options) (map[string]float64, error) {
	fleet := w.vehicles()
	canSys := firstBuildable(fleet, model.BusCAN)
	frSys := firstBuildable(fleet, model.BusFlexRay)
	if canSys == nil || frSys == nil {
		// A workload without a buildable vehicle of some backbone (a small
		// explore pool) falls back to the seed's generated fleet.
		fleet, err := seedFleet(o.seed)
		if err != nil {
			return nil, err
		}
		if canSys == nil {
			canSys = firstBuildable(fleet, model.BusCAN)
		}
		if frSys == nil {
			frSys = firstBuildable(fleet, model.BusFlexRay)
		}
		if canSys == nil || frSys == nil {
			return nil, fmt.Errorf("no buildable CAN and FlexRay vehicles for seed %d", o.seed)
		}
	}
	out := map[string]float64{}
	steps := []struct {
		name string
		fn   func() (float64, error)
	}{
		{"sim.ns_per_event", func() (float64, error) { return microKernel(canSys) }},
		{"trace.ns_per_add", func() (float64, error) { return microTraceAdd(canSys) }},
		{"com.ns_per_roundtrip", func() (float64, error) { return microCom(canSys) }},
		{"e2eprot.ns_per_check", func() (float64, error) { return microE2E(canSys, frSys) }},
		{"sched.ns_per_taskset", func() (float64, error) { return microRTA(canSys) }},
		{"can.ns_per_analysis", func() (float64, error) { return microCAN(canSys) }},
		{"flexray.ns_per_synth", func() (float64, error) { return microFlexRay(frSys) }},
		{"deploy.ns_per_move", func() (float64, error) { return microMoves(canSys) }},
		{"obs.flight_ns_per_push", func() (float64, error) { return microFlight(canSys) }},
		{"rte.build_ms", func() (float64, error) { return microBuild(canSys, frSys) }},
	}
	for _, s := range steps {
		v, err := s.fn()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		out[s.name] = v
	}
	return out, nil
}

// firstBuildable returns the first vehicle on the given backbone that
// rte.Build accepts (a FlexRay vehicle whose static segment overflows is
// an inadmissible input, not a unit under test).
func firstBuildable(fleet []*model.System, kind model.BusKind) *model.System {
	for _, sys := range fleet {
		if len(sys.Buses) == 0 || sys.Buses[0].Kind != kind {
			continue
		}
		if _, err := rte.Build(sys.Clone(), driveOptions()); err == nil {
			return sys
		}
	}
	return nil
}

// seedFleet generates the seed's first vehicles on both backbones.
func seedFleet(seed uint64) ([]*model.System, error) {
	var fleet []*model.System
	for k := 0; k < 16; k++ {
		sys, err := generate(seed, uint64(k/2), k%2 == 1, false)
		if err != nil {
			return nil, err
		}
		fleet = append(fleet, sys)
	}
	return fleet, nil
}

// nsPer times op — which performs n operations — in batches of about
// 10 ms and returns the median ns per operation over seven batches.
func nsPer(n int, op func() error) (float64, error) {
	reps := 1
	for {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		if time.Since(t0) > 10*time.Millisecond || reps >= 1<<20 {
			break
		}
		reps *= 2
	}
	var per []float64
	for b := 0; b < 7; b++ {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(reps*n))
	}
	return median(per), nil
}

// periods is the vehicle's period mix: every periodic runnable's
// effective period.
func periods(sys *model.System) []sim.Duration {
	var out []sim.Duration
	for _, c := range sys.Components {
		for i := range c.Runnables {
			if p := sys.EffectivePeriod(c, &c.Runnables[i]); p > 0 {
				out = append(out, p)
			}
		}
	}
	return out
}

// microKernel runs a bare sim.Kernel with one periodic event per
// runnable of the vehicle for one virtual second.
func microKernel(sys *model.System) (float64, error) {
	ps := periods(sys)
	if len(ps) == 0 {
		return 0, fmt.Errorf("vehicle has no periodic runnables")
	}
	var events uint64
	ns, err := nsPer(1, func() error {
		k := sim.NewKernel()
		for i, p := range ps {
			k.Every(0, p, i%8, func(sim.Time) {})
		}
		events = k.Run(sim.Second)
		return nil
	})
	if events == 0 {
		return 0, err
	}
	return ns / float64(events), err
}

// microTraceAdd appends a simulated vehicle's record stream, repeated to
// a 20 s horizon, to a fresh Recorder: Add against a long retained slice.
func microTraceAdd(sys *model.System) (float64, error) {
	p, err := rte.Build(sys.Clone(), driveOptions())
	if err != nil {
		return 0, err
	}
	p.Run(5 * sim.Second)
	recs := p.Trace.Records
	if len(recs) == 0 {
		return 0, fmt.Errorf("simulation recorded nothing")
	}
	const repeat = 4
	return nsPer(repeat*len(recs), func() error {
		r := &trace.Recorder{}
		for k := 0; k < repeat; k++ {
			for _, rec := range recs {
				r.Add(rec)
			}
		}
		return nil
	})
}

// remoteRoutes returns the vehicle's bus-carried routes.
func remoteRoutes(sys *model.System) ([]vfb.Route, error) {
	rs, err := vfb.Resolve(sys)
	if err != nil {
		return nil, err
	}
	var out []vfb.Route
	for _, r := range rs {
		if !r.Local && r.Bus != "" {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("vehicle has no bus-carried routes")
	}
	return out, nil
}

func signalBits(r vfb.Route) int {
	if r.Bits < 1 {
		return 32
	}
	return r.Bits
}

// microCom packs and unpacks each remote signal's single-signal I-PDU,
// laid out as the RTE lays it out.
func microCom(sys *model.System) (float64, error) {
	rs, err := remoteRoutes(sys)
	if err != nil {
		return 0, err
	}
	pdus := make([]*com.IPdu, len(rs))
	for i, r := range rs {
		bits := signalBits(r)
		pdus[i] = &com.IPdu{Name: r.SignalName, Length: (bits + 7) / 8, Mode: com.Direct,
			Signals: []com.Signal{{Name: "v", Bits: bits}}}
		if err := pdus[i].Validate(); err != nil {
			return 0, err
		}
	}
	values := map[string]float64{"v": 1}
	return nsPer(len(pdus), func() error {
		for i, pdu := range pdus {
			values["v"] = float64(i & 0xff)
			if _, err := pdu.Unpack(pdu.Pack(values)); err != nil {
				return err
			}
		}
		return nil
	})
}

// microE2E protects and checks one payload per remote signal: P01 on the
// CAN vehicle's signals, P05 on the FlexRay vehicle's, header after the
// data bytes as the RTE places it.
func microE2E(canSys, frSys *model.System) (float64, error) {
	type channel struct {
		tx      *e2eprot.Sender
		rx      *e2eprot.Receiver
		payload []byte
	}
	var chans []channel
	for _, v := range []struct {
		sys     *model.System
		profile e2eprot.ProfileKind
	}{{canSys, e2eprot.P01}, {frSys, e2eprot.P05}} {
		rs, err := remoteRoutes(v.sys)
		if err != nil {
			return 0, err
		}
		for i, r := range rs {
			data := (signalBits(r) + 7) / 8
			cfg := e2eprot.Config{Profile: v.profile, DataID: uint16(i + 1), Offset: data}
			payload := make([]byte, data+v.profile.HeaderLen())
			if err := cfg.Validate(len(payload)); err != nil {
				return 0, err
			}
			chans = append(chans, channel{e2eprot.NewSender(cfg), e2eprot.NewReceiver(cfg), payload})
		}
	}
	now := sim.Time(0)
	return nsPer(len(chans), func() error {
		now += sim.Millisecond
		for i := range chans {
			ch := &chans[i]
			ch.payload[0]++
			if err := ch.tx.Protect(ch.payload); err != nil {
				return err
			}
			ch.rx.Check(now, ch.payload)
		}
		return nil
	})
}

// microRTA runs uncached response-time analysis on each ECU task set
// core.BuildTaskSets derives from the vehicle.
func microRTA(sys *model.System) (float64, error) {
	sets, _ := core.BuildTaskSets(sys)
	ecus := sortedKeys(sets)
	if len(ecus) == 0 {
		return 0, fmt.Errorf("vehicle has no task sets")
	}
	return nsPer(len(ecus), func() error {
		for _, e := range ecus {
			if _, err := sched.ResponseTimes(sets[e]); err != nil {
				return err
			}
		}
		return nil
	})
}

// microCAN analyzes each CAN bus's message set, derived as the verifier
// derives it: periodic routes in signal order, IDs from 0x100.
func microCAN(sys *model.System) (float64, error) {
	rs, err := remoteRoutes(sys)
	if err != nil {
		return 0, err
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].SignalName < rs[j].SignalName })
	byBus := map[string][]*can.Message{}
	for _, r := range rs {
		if b := sys.BusByName(r.Bus); b != nil && b.Kind == model.BusCAN && r.Period > 0 {
			byBus[r.Bus] = append(byBus[r.Bus], &can.Message{Name: r.SignalName,
				ID: uint32(0x100 + len(byBus[r.Bus])), DLC: (signalBits(r) + 7) / 8, Period: sim.Duration(r.Period)})
		}
	}
	buses := sortedKeys(byBus)
	if len(buses) == 0 {
		return 0, fmt.Errorf("vehicle has no CAN traffic")
	}
	return nsPer(len(buses), func() error {
		for _, b := range buses {
			if _, err := can.Analyze(can.Config{BitRate: sys.BusByName(b).BitRate}, byBus[b]); err != nil {
				return err
			}
		}
		return nil
	})
}

// microFlexRay synthesizes each FlexRay bus's static schedule.
func microFlexRay(sys *model.System) (float64, error) {
	rs, err := remoteRoutes(sys)
	if err != nil {
		return 0, err
	}
	byBus := map[string][]flexray.Signal{}
	for _, r := range rs {
		if b := sys.BusByName(r.Bus); b != nil && b.Kind == model.BusFlexRay && r.Period > 0 {
			byBus[r.Bus] = append(byBus[r.Bus], flexray.Signal{Name: r.SignalName, Period: sim.Duration(r.Period)})
		}
	}
	buses := sortedKeys(byBus)
	if len(buses) == 0 {
		return 0, fmt.Errorf("vehicle has no FlexRay traffic")
	}
	// The RTE's default cycle (rte.Options zero value).
	cfg := flexray.Config{StaticSlots: 8, SlotLength: sim.US(100), Minislots: 40, MinislotLength: sim.US(5), NIT: sim.US(100)}
	return nsPer(len(buses), func() error {
		for _, b := range buses {
			if _, err := flexray.Synthesize(cfg, byBus[b]); err != nil {
				return err
			}
		}
		return nil
	})
}

// microMoves scores every single-component move of the consolidated
// vehicle through deploy.Prepared.EvaluateMove. Each pass prepares a
// fresh incumbent (so the move memo is cold) under one evaluator whose
// response-time cache is warm after the first pass — the explore
// workload's regime.
func microMoves(sys *model.System) (float64, error) {
	g, err := deploy.Greedy(sys, exploreCons)
	if err != nil {
		return 0, err
	}
	b, err := deploy.NewEvaluator(exploreCons).Bind(g)
	if err != nil {
		return 0, err
	}
	type move struct{ comp, ecu string }
	var moves []move
	for _, c := range sortedKeys(g.Mapping) {
		for _, e := range g.ECUs {
			if e.Name != g.Mapping[c] {
				moves = append(moves, move{c, e.Name})
			}
		}
	}
	if len(moves) == 0 {
		return 0, fmt.Errorf("vehicle has no moves")
	}
	var per []float64
	for pass := 0; pass < 6; pass++ {
		prep, err := b.Prepare(g.Mapping)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for _, m := range moves {
			prep.EvaluateMove(m.comp, m.ecu)
		}
		if pass > 0 {
			per = append(per, float64(time.Since(t0).Nanoseconds())/float64(len(moves)))
		}
	}
	return median(per), nil
}

// microFlight pushes task instants named after the vehicle's runnables
// into a default-sized flight recorder.
func microFlight(sys *model.System) (float64, error) {
	var names []string
	for _, c := range sys.Components {
		for _, r := range c.Runnables {
			names = append(names, c.Name+"."+r.Name)
		}
	}
	if len(names) == 0 {
		return 0, fmt.Errorf("vehicle has no runnables")
	}
	f := obs.NewFlight(obs.FlightConfig{})
	at := int64(0)
	return nsPer(len(names), func() error {
		for _, n := range names {
			at += 1000
			f.Instant(at, n, "start", "")
		}
		return nil
	})
}

// microBuild builds both vehicles' platforms with E2E protection.
func microBuild(canSys, frSys *model.System) (float64, error) {
	ns, err := nsPer(2, func() error {
		for _, sys := range []*model.System{canSys, frSys} {
			if _, err := rte.Build(sys.Clone(), driveOptions()); err != nil {
				return err
			}
		}
		return nil
	})
	return ns / 1e6, err
}
