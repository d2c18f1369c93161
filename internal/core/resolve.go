package core

import (
	"sync"

	"autorte/internal/can"
	"autorte/internal/flexray"
	"autorte/internal/model"
	"autorte/internal/rte"
	"autorte/internal/sched"
)

// analysisCtx is one verification pass's view of the system: the analysis
// inputs it verifies, plus each analysis resolved during the pass. The
// pipeline caches already collapse repeated analyses to a lookup, but
// each lookup still serializes the full problem into its cache key — for
// a chain-heavy system that serialization alone dominates a pass, where
// the verdicts and dozens of chain stages read the same handful of bus
// and ECU analyses. The context pins each resolved result under its ECU
// or bus NAME, which is stable for the pass (its inputs are fixed), so a
// pass looks each resource up once.
//
// All results are cache-owned and read-only. Safe for concurrent use.
type analysisCtx struct {
	p    *Pipeline
	sys  *model.System
	in   *inputs
	opts rte.Options

	mu      sync.Mutex
	rta     map[string]rtaVerdict
	canResp map[string][]can.Response
	frSched map[string]map[string]flexray.Assignment
}

func (p *Pipeline) newAnalysisCtx(sys *model.System, in *inputs, opts rte.Options) *analysisCtx {
	return &analysisCtx{
		p: p, sys: sys, in: in, opts: opts,
		rta:     make(map[string]rtaVerdict, len(in.taskSets)),
		canResp: map[string][]can.Response{},
		frSched: map[string]map[string]flexray.Assignment{},
	}
}

// pinned returns m[key], resolving it on first use. The lock is not held
// while resolving: concurrent first uses of one key may both resolve it —
// the pipeline caches coalesce the analysis itself — and store equal
// results.
func pinned[V any](c *analysisCtx, m map[string]V, key string, resolve func() (V, error)) (V, error) {
	c.mu.Lock()
	v, ok := m[key]
	c.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := resolve()
	if err != nil {
		return v, err
	}
	c.mu.Lock()
	m[key] = v
	c.mu.Unlock()
	return v, nil
}

// rtaVerdict is one ECU's response-time analysis and its verdict.
type rtaVerdict struct {
	ok bool
	rs []sched.Result
}

// ecuRTA resolves the response-time analysis of one ECU's task set and
// its schedulability verdict.
func (c *analysisCtx) ecuRTA(ecu string) (bool, []sched.Result, error) {
	v, err := pinned(c, c.rta, ecu, func() (rtaVerdict, error) {
		ok, rs, err := c.p.RTA.SchedulableShared(c.in.taskSets[ecu])
		return rtaVerdict{ok, rs}, err
	})
	return v.ok, v.rs, err
}

// canResponses resolves the bus analysis of one CAN bus's message set.
func (c *analysisCtx) canResponses(bus string, cfg can.Config) ([]can.Response, error) {
	return pinned(c, c.canResp, bus, func() ([]can.Response, error) {
		return c.p.CAN.AnalyzeShared(cfg, c.in.busMsgs[bus])
	})
}

// flexSchedule resolves the synthesized static schedule of one FlexRay
// bus.
func (c *analysisCtx) flexSchedule(bus string, cfg flexray.Config) (map[string]flexray.Assignment, error) {
	return pinned(c, c.frSched, bus, func() (map[string]flexray.Assignment, error) {
		return c.p.flexraySchedule(cfg, c.in.byBus[bus])
	})
}
