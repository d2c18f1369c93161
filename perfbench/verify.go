package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"autorte/internal/core"
	"autorte/internal/model"
	"autorte/internal/obs"
	"autorte/internal/rte"
)

// verify is a stream of distinct generated vehicles, exported to JSON at
// set-up: each request is one autocheck invocation with cold caches —
// model.Import, then a fresh core.Pipeline's Verify. Vehicles alternate
// CAN and FlexRay backbones and carry chain latency constraints, so the
// verdicts mix admissible and inadmissible systems.
type verify struct {
	o    options
	docs [][]byte
}

func newVerify(o options) *verify {
	n := int(math.Round(256 * o.scale))
	if n < 2 {
		n = 2
	}
	return &verify{o: o, docs: make([][]byte, n&^1)}
}

func (v *verify) inputs() int    { return len(v.docs) }
func (v *verify) parallel() bool { return true }
func (v *verify) golden() bool   { return true }

func (v *verify) setup() error {
	for j := range v.docs {
		sys, err := generate(v.o.seed, uint64(2000+j), j%2 == 1, true)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := model.Export(&buf, sys); err != nil {
			return err
		}
		v.docs[j] = buf.Bytes()
	}
	return nil
}

func (v *verify) vehicles() []*model.System {
	var out []*model.System
	for _, doc := range v.docs {
		if sys, err := model.Import(bytes.NewReader(doc)); err == nil {
			out = append(out, sys)
		}
	}
	return out
}

func (v *verify) request(i int, in *instr) (int, any, error) {
	j := i % len(v.docs)
	rep, err := v.check(j, v.o.workers, in)
	if err != nil {
		return j, nil, err
	}
	// The verdict mix, tallied in every phase, so that a mix that drifts
	// (or an early-exit path that hides behind errored chains) shows.
	c := &in.c
	c.verifies++
	if rep.OK() {
		c.admissible++
	}
	c.chains += len(rep.Chains)
	for _, ch := range rep.Chains {
		if ch.Err != "" {
			c.chainErrs++
		}
	}
	return j, rep, nil
}

func (v *verify) twin(i int) (int, error) {
	j := i % len(v.docs)
	_, err := v.check(j, v.o.workers, &instr{})
	return j, err
}

// check is one autocheck invocation on input j.
func (v *verify) check(j, workers int, in *instr) (*core.Report, error) {
	sp := in.span("model.Import")
	t0 := time.Now()
	sys, err := model.Import(bytes.NewReader(v.docs[j]))
	t1 := time.Now()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("vehicle %d: import: %w", j, err)
	}
	p := core.NewPipeline(workers)
	var reg *obs.Registry
	if in.traced() {
		reg = obs.NewRegistry()
		p.Observe(reg)
		p.Tracer = in.tr
	}
	sp = in.span("core.Pipeline.Verify")
	rep, err := p.Verify(sys, nil, rte.Options{})
	t2 := time.Now()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("vehicle %d: verify: %w", j, err)
	}
	if in.traced() {
		c := &in.c
		c.imports++
		c.importNs += t1.Sub(t0).Nanoseconds()
		c.verifyNs += t2.Sub(t1).Nanoseconds()
		in.stages(reg)
		h, m := p.RTA.Stats()
		c.rtaHits, c.rtaMisses = c.rtaHits+h, c.rtaMisses+m
		h, m = p.CAN.Stats()
		c.canHits, c.canMisses = c.canHits+h, c.canMisses+m
		h, m = p.FlexRay.Stats()
		c.frHits, c.frMisses = c.frHits+h, c.frMisses+m
	}
	return rep, nil
}

func (v *verify) settle(*ledger, *instr) error { return nil }

func (v *verify) finish(_ *ledger, in *instr) error {
	c := in.c
	fmt.Fprintf(v.o.log, "verify: %d verifications of %d vehicles, %d admissible, %d inadmissible; %d of %d chains ended with an analysis error\n",
		c.verifies, len(v.docs), c.admissible, c.verifies-c.admissible, c.chainErrs, c.chains)
	return nil
}

func (v *verify) reference(input, workers int) (string, error) {
	rep, err := v.check(input, workers, &instr{})
	if err != nil {
		return "", err
	}
	return digestJSON(rep)
}
