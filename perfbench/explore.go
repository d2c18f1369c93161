package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"autorte/internal/core"
	"autorte/internal/deploy"
	"autorte/internal/model"
	"autorte/internal/rte"
)

// explore is the architect's search on Greedy-consolidated seed vehicles
// with warm caches: a request is one search round — steepest descent
// under RequireSchedulable through a long-lived Evaluator, incremental
// re-verification of its winner, then restart-based annealing at fixed
// iterations and restarts.
type explore struct {
	o    options
	in   []exploreInput
	last int
}

type exploreInput struct {
	orig, sys *model.System
	base      map[string]string
	ev        *deploy.Evaluator
	pipe      *core.Pipeline
	inc       *core.Incremental
	seed      uint64
}

const (
	exploreDescendIters  = 8
	exploreAnnealIters   = 100
	exploreAnnealRestart = 4
)

var exploreCons = deploy.Constraints{RequireSchedulable: true}

func newExplore(o options) *explore {
	n := int(math.Round(32 * o.scale))
	if n < 2 {
		n = 2
	}
	return &explore{o: o, in: make([]exploreInput, n&^1)}
}

func (e *explore) inputs() int    { return len(e.in) }
func (e *explore) parallel() bool { return true }
func (e *explore) golden() bool   { return true }

func (e *explore) vehicles() []*model.System {
	out := make([]*model.System, len(e.in))
	for i, x := range e.in {
		out[i] = x.orig
	}
	return out
}

func (e *explore) setup() error {
	for j := range e.in {
		orig, err := generate(e.o.seed, uint64(1000+j), j%2 == 1, true)
		if err != nil {
			return err
		}
		sys, err := deploy.Greedy(orig, exploreCons)
		if err != nil {
			return fmt.Errorf("vehicle %d: greedy: %w", j, err)
		}
		pipe := core.NewPipeline(e.o.workers)
		inc, err := core.NewIncremental(pipe, sys.Clone(), nil, rte.Options{})
		if err != nil {
			return fmt.Errorf("vehicle %d: %w", j, err)
		}
		base := map[string]string{}
		for _, c := range sortedKeys(sys.Mapping) {
			base[c] = sys.Mapping[c]
		}
		e.in[j] = exploreInput{orig: orig, sys: sys, base: base, ev: deploy.NewEvaluator(exploreCons),
			pipe: pipe, inc: inc, seed: mix(e.o.seed, uint64(3000+j))}
	}
	// One round per vehicle fills the caches the measured rounds reuse.
	for j := range e.in {
		if _, _, err := e.request(j, &instr{}); err != nil {
			return err
		}
		if err := e.settle(nil, &instr{}); err != nil {
			return err
		}
	}
	return nil
}

// exploreOut is one round's result; its costs are computed when the
// harness digests it, outside the timed request.
type exploreOut struct {
	descend, anneal *model.System
	report          *core.Report
}

func (x exploreOut) MarshalJSON() ([]byte, error) {
	obj := deploy.DefaultObjective()
	return json.Marshal(struct {
		Descend     map[string]string
		DescendCost float64
		Reverify    *core.Report
		Anneal      map[string]string
		AnnealCost  float64
	}{
		x.descend.Mapping, deploy.Evaluate(x.descend, exploreCons).Cost(obj), x.report,
		x.anneal.Mapping, deploy.Evaluate(x.anneal, exploreCons).Cost(obj),
	})
}

func (e *explore) request(i int, in *instr) (int, any, error) {
	j := i % len(e.in)
	e.last = j
	x := &e.in[j]
	out, err := x.round(x.ev, x.inc, e.o.workers, in)
	return j, out, err
}

// twin runs request i's round again and resets the verifier as settle
// does, so the request finds the same state either way.
func (e *explore) twin(i int) (int, error) {
	j := i % len(e.in)
	x := &e.in[j]
	if _, err := x.round(x.ev, x.inc, e.o.workers, &instr{}); err != nil {
		return j, err
	}
	if _, err := x.inc.Reverify(x.base); err != nil {
		return j, fmt.Errorf("reverify reset: %w", err)
	}
	return j, nil
}

// round is one search round with the given evaluator and incremental
// verifier.
func (x *exploreInput) round(ev *deploy.Evaluator, inc *core.Incremental, workers int, in *instr) (exploreOut, error) {
	obj := deploy.DefaultObjective()
	var out exploreOut
	var n0, a0, rc0, ru0, h0, m0, ch0, cm0, fh0, fm0 uint64
	if in.traced() {
		n0, a0 = ev.SearchCounts()
		rc0, ru0 = inc.Stats()
		h0, m0 = ev.RTA.Stats()
		ch0, cm0 = x.pipe.CAN.Stats()
		fh0, fm0 = x.pipe.FlexRay.Stats()
	}
	sp := in.span("deploy.DescendWith")
	d, err := deploy.DescendWith(ev, x.sys, obj, workers, exploreDescendIters)
	sp.End()
	if err != nil {
		return out, fmt.Errorf("descend: %w", err)
	}
	sp = in.span("core.Incremental.Reverify")
	t0 := time.Now()
	rep, err := inc.Reverify(d.Mapping)
	t1 := time.Now()
	sp.End()
	if err != nil {
		return out, fmt.Errorf("reverify: %w", err)
	}
	sp = in.span("deploy.AnnealParallel")
	a, err := deploy.AnnealParallel(x.sys, exploreCons, obj, x.seed, exploreAnnealIters, exploreAnnealRestart, workers)
	sp.End()
	if err != nil {
		return out, fmt.Errorf("anneal: %w", err)
	}
	if in.traced() {
		c := &in.c
		n1, a1 := ev.SearchCounts()
		rc1, ru1 := inc.Stats()
		h1, m1 := ev.RTA.Stats()
		ch1, cm1 := x.pipe.CAN.Stats()
		fh1, fm1 := x.pipe.FlexRay.Stats()
		c.canHits += ch1 - ch0
		c.canMisses += cm1 - cm0
		c.frHits += fh1 - fh0
		c.frMisses += fm1 - fm0
		c.moves += n1 - n0
		c.accepted += a1 - a0
		c.recomputed += rc1 - rc0
		c.reused += ru1 - ru0
		c.rtaHits += h1 - h0
		c.rtaMisses += m1 - m0
		c.reverifies++
		c.reverifyNs += t1.Sub(t0).Nanoseconds()
	}
	return exploreOut{descend: d, anneal: a, report: rep}, nil
}

// settle moves the incremental verifier back to the consolidated
// mapping, so the next round on this vehicle re-verifies the same delta.
func (e *explore) settle(*ledger, *instr) error {
	x := &e.in[e.last]
	if _, err := x.inc.Reverify(x.base); err != nil {
		return fmt.Errorf("reverify reset: %w", err)
	}
	return nil
}

func (e *explore) finish(*ledger, *instr) error { return nil }

func (e *explore) reference(input, workers int) (string, error) {
	x := &e.in[input]
	inc, err := core.NewIncremental(core.NewPipeline(workers), x.sys.Clone(), nil, rte.Options{})
	if err != nil {
		return "", err
	}
	out, err := x.round(deploy.NewEvaluator(exploreCons), inc, workers, &instr{})
	if err != nil {
		return "", err
	}
	return digestJSON(out)
}
