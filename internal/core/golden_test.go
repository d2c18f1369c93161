package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"maps"
	"os"
	"strings"
	"testing"

	"autorte/internal/contract"
	"autorte/internal/flexray"
	"autorte/internal/model"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/workload"
)

// The golden report corpus pins the static verification reports of fixed
// random walks of single component moves. Each line is one entry: a
// fixture, the step index and the move taken at that step (step 0 is the
// fixture's own mapping), and the report — or the error — a fresh
// Pipeline.Verify produced for the resulting mapping when the corpus was
// written. A step whose verification errors is taken back, so the walk
// continues from the last verified mapping. Both a fresh Pipeline.Verify
// per step and one Incremental walked through Reverify must reproduce
// every entry byte for byte. Regenerate with
//
//	go test ./internal/core -run TestGoldenReports -update-golden
//
// only when a change to the reports is intended.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_reports.jsonl from Pipeline.Verify")

const goldenPath = "testdata/golden_reports.jsonl"

// goldenSteps is the number of moves of every corpus walk.
const goldenSteps = 16

type goldenEntry struct {
	System string          `json:"system"`
	Step   int             `json:"step"`
	Comp   string          `json:"comp,omitempty"`
	ECU    string          `json:"ecu,omitempty"`
	Report json.RawMessage `json:"report,omitempty"`
	Err    string          `json:"err,omitempty"`
}

// goldenFixture is one verification input of the corpus: the system, its
// contracts and the RTE options it is verified under.
type goldenFixture struct {
	sys       *model.System
	contracts map[string]*contract.Contract
	opts      rte.Options
}

// goldenCase is one walk of the corpus.
type goldenCase struct {
	system string
	seed   uint64
}

// goldenCases covers a chain-constrained CAN vehicle, a FlexRay backbone
// gatewayed to a TTP segment, a vehicle with rate-less runnables, a
// vehicle whose CAN backbone is saturated, and the passive-standby
// fixture with contracts attached.
func goldenCases() []goldenCase {
	return []goldenCase{
		{"vehicle", 11},
		{"mixedbus", 12},
		{"rateless", 13},
		{"saturated", 14},
		{"standby", 15},
	}
}

func goldenSystem(t testing.TB, name string) goldenFixture {
	t.Helper()
	switch name {
	case "vehicle":
		return goldenFixture{sys: incrementalVehicle(t)}
	case "mixedbus":
		return goldenFixture{sys: mixedBusVehicle(t), opts: rte.Options{
			TTPSlotLength: sim.US(100),
			FlexRayConfig: flexray.Config{
				StaticSlots: 64, SlotLength: sim.US(20),
				Minislots: 20, MinislotLength: sim.US(5), NIT: sim.US(100),
			},
		}}
	case "rateless":
		return goldenFixture{sys: ratelessVehicle(t)}
	case "saturated":
		return goldenFixture{sys: saturatedVehicle(t)}
	case "standby":
		sys, contracts := standbySystem(t)
		return goldenFixture{sys: sys, contracts: contracts}
	}
	t.Fatalf("unknown golden system %q", name)
	return goldenFixture{}
}

// chainVehicle generates a vehicle with chain constraints and cross-domain
// traffic on the given backbone.
func chainVehicle(t testing.TB, kind model.BusKind, bitRate int64, seed uint64) *model.System {
	t.Helper()
	sys, err := workload.GenerateVehicle(workload.VehicleSpec{
		ECUsPerDAS:       3,
		CrossDASLinks:    2,
		ChainConstraints: true,
		BusKind:          kind,
		BusBitRate:       bitRate,
	}, sim.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// mixedBusVehicle puts every third ECU of a FlexRay-backbone vehicle on a
// TTP segment instead; the first ECU sits on both and gateways between
// them, so chains cross FlexRay, TTP and gatewayed two-segment routes.
func mixedBusVehicle(t testing.TB) *model.System {
	t.Helper()
	sys := chainVehicle(t, model.BusFlexRay, 0, 8)
	sys.Buses = append(sys.Buses, &model.Bus{Name: "ttp0", Kind: model.BusTTP, BitRate: 2_000_000})
	for i, e := range sys.ECUs {
		switch {
		case i == 0:
			e.Buses = append(e.Buses, "ttp0")
		case i%3 == 2:
			e.Buses = []string{"ttp0"}
		}
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// ratelessVehicle turns the first controller of every subsystem into a
// mode-switch handler: it and the actuator it feeds lose their derivable
// rate, so reports carry warnings, sporadic bus signals and chain errors.
func ratelessVehicle(t testing.TB) *model.System {
	t.Helper()
	sys := chainVehicle(t, model.BusCAN, 1_000_000, 9)
	n := 0
	for _, c := range sys.Components {
		if strings.HasSuffix(c.Name, "_c0_ctrl") {
			c.Runnables[0].Trigger = model.Trigger{Kind: model.ModeSwitchEvent, Mode: "degraded"}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no controller to make rate-less")
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// saturatedVehicle runs the chain-constrained vehicle over a 125 kbit/s
// CAN backbone: the bus verdict fails and chains crossing it error.
func saturatedVehicle(t testing.TB) *model.System {
	t.Helper()
	return chainVehicle(t, model.BusCAN, 125_000, 10)
}

// standbySystem is a sensor → controller → actuator chain whose
// controller is replicated with a passive standby (Ctrl#1, sited on e2
// apart from its primary on e1), with contracts on every component. The
// standby is deployed and wired like its primary but suspended, so it
// must contribute no CPU demand to its ECU's analysis.
func standbySystem(t testing.TB) (*model.System, map[string]*contract.Contract) {
	t.Helper()
	sig := &model.PortInterface{
		Name: "IfSig", Kind: model.SenderReceiver,
		Elements: []model.DataElement{{Name: "v", Type: model.UInt16}},
	}
	ctrl := func(name, replicaOf string, red model.Redundancy) *model.SWC {
		return &model.SWC{
			Name: name, ASIL: model.ASILD, MemoryKB: 32,
			Redundancy: red, ReplicaOf: replicaOf,
			Ports: []model.Port{
				{Name: "in", Direction: model.Required, Interface: sig},
				{Name: "cmd", Direction: model.Provided, Interface: sig},
			},
			Runnables: []model.Runnable{{
				Name: "law", WCETNominal: sim.US(400),
				Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(5)},
				Reads:   []model.PortRef{{Port: "in", Elem: "v"}},
				Writes:  []model.PortRef{{Port: "cmd", Elem: "v"}},
			}},
		}
	}
	sys := &model.System{
		Name:       "standby",
		Interfaces: []*model.PortInterface{sig},
		Components: []*model.SWC{
			{
				Name: "Sensor", ASIL: model.ASILB, MemoryKB: 16,
				Ports: []model.Port{{Name: "out", Direction: model.Provided, Interface: sig}},
				Runnables: []model.Runnable{{
					Name: "sample", WCETNominal: sim.US(50),
					Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(10)},
					Writes:  []model.PortRef{{Port: "out", Elem: "v"}},
				}},
			},
			ctrl("Ctrl", "", model.Redundancy{Replicas: 2, Mode: model.StandbyPassive}),
			ctrl("Ctrl#1", "Ctrl", model.Redundancy{Mode: model.StandbyPassive}),
			{
				Name: "Act", ASIL: model.ASILC, MemoryKB: 16,
				Ports: []model.Port{{Name: "in", Direction: model.Required, Interface: sig}},
				Runnables: []model.Runnable{{
					Name: "apply", WCETNominal: sim.US(80),
					Trigger: model.Trigger{Kind: model.DataReceivedEvent, Port: "in", Elem: "v"},
					Reads:   []model.PortRef{{Port: "in", Elem: "v"}},
				}},
			},
		},
		ECUs: []*model.ECU{
			{Name: "e1", Speed: 1, MemoryKB: 256, MaxASIL: model.ASILD, Buses: []string{"can0"}},
			{Name: "e2", Speed: 1, MemoryKB: 256, MaxASIL: model.ASILD, Buses: []string{"can0"}},
			{Name: "e3", Speed: 1, MemoryKB: 256, MaxASIL: model.ASILD, Buses: []string{"can0"}},
		},
		Buses: []*model.Bus{{Name: "can0", Kind: model.BusCAN, BitRate: 500_000}},
		Connectors: []model.Connector{
			{FromSWC: "Sensor", FromPort: "out", ToSWC: "Ctrl", ToPort: "in"},
			{FromSWC: "Sensor", FromPort: "out", ToSWC: "Ctrl#1", ToPort: "in"},
			{FromSWC: "Ctrl", FromPort: "cmd", ToSWC: "Act", ToPort: "in"},
			{FromSWC: "Ctrl#1", FromPort: "cmd", ToSWC: "Act", ToPort: "in"},
		},
		Mapping: map[string]string{"Sensor": "e1", "Ctrl": "e1", "Ctrl#1": "e2", "Act": "e2"},
		Constraints: []model.LatencyConstraint{{
			Name:   "control",
			Budget: sim.MS(30),
			Chain: []model.PortRef2{
				{SWC: "Sensor", Port: "out"},
				{SWC: "Ctrl", Port: "in"},
				{SWC: "Ctrl", Port: "cmd"},
				{SWC: "Act", Port: "in"},
			},
		}},
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := func(kind contract.ConditionKind, port string, lo, hi float64) []contract.Condition {
		return []contract.Condition{{Kind: kind, Port: port, Elem: "v", Lo: lo, Hi: hi}}
	}
	contracts := map[string]*contract.Contract{
		"Sensor": {Component: "Sensor", Guarantees: rng(contract.ValueRange, "out", 0, 100)},
		"Ctrl":   {Component: "Ctrl", Assumes: rng(contract.ValueRange, "in", 0, 200), Guarantees: rng(contract.ValueRange, "cmd", 0, 10)},
		"Ctrl#1": {Component: "Ctrl#1", Assumes: rng(contract.ValueRange, "in", 0, 50), Guarantees: rng(contract.ValueRange, "cmd", 0, 10)},
		"Act":    {Component: "Act", Assumes: rng(contract.ValueRange, "in", 0, 10)},
	}
	return sys, contracts
}

// reportJSON is the corpus encoding of a verification outcome.
func reportJSON(t testing.TB, rep *Report, err error) (json.RawMessage, string) {
	t.Helper()
	if err != nil {
		return nil, err.Error()
	}
	b, merr := json.Marshal(rep)
	if merr != nil {
		t.Fatal(merr)
	}
	return b, ""
}

// writeGolden walks every case through a fresh Pipeline.Verify per step
// and writes the corpus, one entry per line.
func writeGolden(t *testing.T) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, gc := range goldenCases() {
		fx := goldenSystem(t, gc.system)
		cur := fx.sys
		r := sim.NewRand(gc.seed)
		for step := 0; step <= goldenSteps; step++ {
			e := goldenEntry{System: gc.system, Step: step}
			prev := ""
			if step > 0 {
				e.Comp = cur.Components[r.Intn(len(cur.Components))].Name
				e.ECU = cur.ECUs[r.Intn(len(cur.ECUs))].Name
				prev = cur.Mapping[e.Comp]
				cur.Mapping[e.Comp] = e.ECU
			}
			rep, err := NewPipeline(1).Verify(cur, fx.contracts, fx.opts)
			e.Report, e.Err = reportJSON(t, rep, err)
			if err != nil && step > 0 {
				cur.Mapping[e.Comp] = prev
			}
			if err := enc.Encode(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t *testing.T) map[string][]goldenEntry {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]goldenEntry{}
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var e goldenEntry
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		out[e.System] = append(out[e.System], e)
	}
	return out
}

// checkGolden compares one verification outcome with its corpus entry.
func checkGolden(t *testing.T, arm string, e goldenEntry, rep *Report, err error) {
	t.Helper()
	got, gotErr := reportJSON(t, rep, err)
	if gotErr != e.Err {
		t.Fatalf("%s %s step %d (%s -> %s): error %q, corpus has %q", arm, e.System, e.Step, e.Comp, e.ECU, gotErr, e.Err)
	}
	var want bytes.Buffer
	if e.Report != nil {
		if err := json.Compact(&want, e.Report); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%s %s step %d (%s -> %s): report diverges from corpus\n got: %s\nwant: %s", arm, e.System, e.Step, e.Comp, e.ECU, got, want.Bytes())
	}
}

func TestGoldenReports(t *testing.T) {
	if *updateGolden {
		writeGolden(t)
	}
	corpus := readGolden(t)
	for _, gc := range goldenCases() {
		entries := corpus[gc.system]
		if len(entries) != goldenSteps+1 {
			t.Fatalf("%s: corpus holds %d entries, want %d", gc.system, len(entries), goldenSteps+1)
		}
		t.Run(gc.system+"/verify", func(t *testing.T) {
			fx := goldenSystem(t, gc.system)
			for _, e := range entries {
				prev := fx.sys.Mapping[e.Comp]
				if e.Step > 0 {
					fx.sys.Mapping[e.Comp] = e.ECU
				}
				rep, err := NewPipeline(1).Verify(fx.sys, fx.contracts, fx.opts)
				checkGolden(t, "verify", e, rep, err)
				if err != nil && e.Step > 0 {
					fx.sys.Mapping[e.Comp] = prev
				}
			}
		})
		t.Run(gc.system+"/reverify", func(t *testing.T) {
			fx := goldenSystem(t, gc.system)
			inc, err := NewIncremental(NewPipeline(1), fx.sys, fx.contracts, fx.opts)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "reverify", entries[0], inc.Report(), nil)
			for _, e := range entries[1:] {
				next := maps.Clone(fx.sys.Mapping)
				next[e.Comp] = e.ECU
				rep, err := inc.Reverify(next)
				checkGolden(t, "reverify", e, rep, err)
			}
		})
	}
}
