// Package vfb implements the Virtual Functional Bus view of a system:
// design-level connectivity checks and the resolution of logical
// connectors onto concrete communication — intra-ECU buffers or inter-ECU
// bus signals — once a deployment mapping exists.
//
// The VFB is the paper's abstraction for location independence (§2): the
// application wiring is fixed here, and only Resolve decides which
// connectors become bus traffic. Moving an SWC between ECUs changes routes,
// never the component code.
package vfb

import (
	"fmt"
	"sort"

	"autorte/internal/model"
)

// Route is the concrete realization of one data element of a connector.
type Route struct {
	Conn model.Connector
	Elem string
	// Local is true when provider and consumer share an ECU.
	Local bool
	// Bus carries the route when remote (the first segment when routed
	// through a gateway).
	Bus string
	// Via names the gateway ECU when source and destination share no bus:
	// the signal travels Bus to Via, then Bus2 onward (the Gateway box of
	// the paper's Figure 1). Empty for single-segment routes.
	Via string
	// Bus2 carries the second segment of a gatewayed route.
	Bus2 string
	// SignalName is the globally unique name for the routed element.
	SignalName string
	// Bits is the packed width of the element.
	Bits int
	// Period is the producing runnable's period in nanoseconds
	// (0 if event-driven).
	Period int64
}

// CheckConnectivity verifies VFB completeness: every required port must
// have exactly one logical provider (AUTOSAR allows unconnected R-ports
// only with explicit defaults; we treat them as design errors). A replica
// group counts as ONE logical provider: when deploy.Replicate fans a
// connector out so the primary and its standbys all feed the same
// consumer port, only the active instance publishes at any instant, so
// the port still sees a single producer stream.
func CheckConnectivity(s *model.System) error {
	// Count-only map on the hot path: connectivity runs inside every
	// verification pass, and a per-port provider slice here was a
	// measurable fraction of the Verify allocs/op budget. The provider
	// list is materialized only for the rare multi-provider port.
	incoming := map[[2]string]int{}
	for _, c := range s.Connectors {
		incoming[[2]string{c.ToSWC, c.ToPort}]++
	}
	for _, comp := range s.Components {
		for _, p := range comp.Ports {
			if p.Direction != model.Required {
				continue
			}
			n := incoming[[2]string{comp.Name, p.Name}]
			if n == 0 {
				return fmt.Errorf("vfb: required port %s.%s is unconnected", comp.Name, p.Name)
			}
			if n > 1 {
				var provs []string
				for _, c := range s.Connectors {
					if c.ToSWC == comp.Name && c.ToPort == p.Name {
						provs = append(provs, c.FromSWC)
					}
				}
				if !oneLogicalProvider(s, provs) {
					return fmt.Errorf("vfb: required port %s.%s has %d providers", comp.Name, p.Name, n)
				}
			}
		}
	}
	return nil
}

// oneLogicalProvider reports whether a set of providing components is one
// replica group: distinct instances that all collapse (via ReplicaOf) to
// the same primary. The same instance wired in twice is still an error.
func oneLogicalProvider(s *model.System, provs []string) bool {
	primary := ""
	seen := map[string]bool{}
	for _, name := range provs {
		if seen[name] {
			return false
		}
		seen[name] = true
		group := name
		if c := s.Component(name); c != nil && c.ReplicaOf != "" {
			group = c.ReplicaOf
		}
		if primary == "" {
			primary = group
		} else if group != primary {
			return false
		}
	}
	return true
}

// Resolve maps every connector element onto a route under the system's
// current mapping, sorted by signal name. Every component must be mapped,
// and remote connectors need a path between their ECUs; on failure the
// error names the first unroutable connector in declaration order.
func Resolve(s *model.System) ([]Route, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return MaterializeAll(s, Templates(s), s.Mapping, PathMemo(s))
}

// Template is the mapping-independent part of a Route: everything Resolve
// derives from the VFB wiring alone (signal identity, width, producer
// rate). Incremental re-verification precomputes templates once and only
// re-evaluates the mapping-dependent fields (Local, Bus, Via, Bus2) when
// the deployment changes.
type Template struct {
	Conn       model.Connector
	Elem       string
	SignalName string
	Bits       int
	Period     int64
}

// Templates precomputes one Template per connector element of a validated
// system, sorted by SignalName — the same order and content Resolve gives
// its routes, minus the mapping-dependent fields.
func Templates(s *model.System) []Template {
	var tmpls []Template
	for _, c := range s.Connectors {
		prov := s.Component(c.FromSWC).Port(c.FromPort)
		req := s.Component(c.ToSWC).Port(c.ToPort)
		if prov.Interface.Kind != model.SenderReceiver {
			tmpls = append(tmpls, Template{
				Conn: c, Elem: "__call__",
				SignalName: signalName(c, "__call__"),
				Bits:       32,
			})
			continue
		}
		for _, el := range req.Interface.Elements {
			tmpls = append(tmpls, Template{
				Conn: c, Elem: el.Name,
				SignalName: signalName(c, el.Name),
				Bits:       el.Type.Bits,
				Period:     producerPeriod(s, s.Component(c.FromSWC), c.FromPort, el.Name),
			})
		}
	}
	sort.Slice(tmpls, func(i, j int) bool { return tmpls[i].SignalName < tmpls[j].SignalName })
	return tmpls
}

// Materialize turns a Template into a Route under the given mapping,
// using pathFor to resolve remote ECU pairs (callers memoize it).
func (t Template) Materialize(mapping map[string]string,
	pathFor func(srcECU, dstECU string) (bus, via, bus2 string, err error)) (Route, error) {
	src, ok := mapping[t.Conn.FromSWC]
	if !ok {
		return Route{}, fmt.Errorf("vfb: component %s is not mapped", t.Conn.FromSWC)
	}
	dst, ok := mapping[t.Conn.ToSWC]
	if !ok {
		return Route{}, fmt.Errorf("vfb: component %s is not mapped", t.Conn.ToSWC)
	}
	r := Route{
		Conn: t.Conn, Elem: t.Elem,
		Local:      src == dst,
		SignalName: t.SignalName,
		Bits:       t.Bits,
		Period:     t.Period,
	}
	if !r.Local {
		bus, via, bus2, err := pathFor(src, dst)
		if err != nil {
			return Route{}, err
		}
		r.Bus, r.Via, r.Bus2 = bus, via, bus2
	}
	return r, nil
}

// MaterializeAll turns every template of s (as Templates returns them)
// into its route under mapping. On failure it reports the first
// unroutable connector in declaration order — not in template order — so
// the error does not depend on how signal names sort.
func MaterializeAll(s *model.System, tmpls []Template, mapping map[string]string,
	pathFor func(srcECU, dstECU string) (bus, via, bus2 string, err error)) ([]Route, error) {
	routes := make([]Route, len(tmpls))
	for i, t := range tmpls {
		r, err := t.Materialize(mapping, pathFor)
		if err != nil {
			// Re-route the connectors in declaration order for the error a
			// connector-by-connector resolve meets first.
			for _, c := range s.Connectors {
				if _, err := (Template{Conn: c}).Materialize(mapping, pathFor); err != nil {
					return nil, err
				}
			}
			return nil, err
		}
		routes[i] = r
	}
	return routes, nil
}

func signalName(c model.Connector, elem string) string {
	return c.FromSWC + "." + c.FromPort + "." + elem + "->" + c.ToSWC + "." + c.ToPort
}

// producerPeriod returns the effective period (ns) of the runnable
// writing the element: event-driven producers inherit their trigger
// chain's rate (model.System.EffectivePeriod), so even signals written
// from data-received runnables get an analyzable rate. Returns 0 only
// when no rate is derivable.
func producerPeriod(s *model.System, swc *model.SWC, port, elem string) int64 {
	for i := range swc.Runnables {
		r := &swc.Runnables[i]
		for _, w := range r.Writes {
			if w.Port == port && (w.Elem == elem || w.Elem == "") {
				return int64(s.EffectivePeriod(swc, r))
			}
		}
	}
	return 0
}

// Path resolves the communication path between two ECUs without routing a
// full system: a directly shared bus when one exists, else a two-segment
// path through a gateway. Deployment search uses this to precompute the
// ECU-pair reachability that Resolve would discover connector by
// connector.
func Path(s *model.System, srcECU, dstECU string) (bus, via, bus2 string, err error) {
	return resolvePath(s, srcECU, dstECU)
}

// PathMemo returns Path for s, memoized per ECU pair: vehicle topologies
// route many connectors over few ECU pairs. The ECUs and their bus
// attachments must not change while the memo is in use. Not safe for
// concurrent use.
func PathMemo(s *model.System) func(srcECU, dstECU string) (bus, via, bus2 string, err error) {
	type path struct {
		bus, via, bus2 string
		err            error
	}
	memo := map[[2]string]path{}
	return func(src, dst string) (string, string, string, error) {
		k := [2]string{src, dst}
		p, ok := memo[k]
		if !ok {
			p.bus, p.via, p.bus2, p.err = resolvePath(s, src, dst)
			memo[k] = p
		}
		return p.bus, p.via, p.bus2, p.err
	}
}

// resolvePath finds the communication path between two ECUs: a directly
// shared bus when one exists, else a two-segment path through a gateway
// ECU attached to a bus of each side. Longer paths are rejected — in
// practice vehicle topologies gateway between adjacent domain buses only.
func resolvePath(s *model.System, srcECU, dstECU string) (bus, via, bus2 string, err error) {
	if b, err := sharedBus(s, srcECU, dstECU); err == nil {
		return b, "", "", nil
	}
	// Candidate gateways in deterministic order.
	for _, g := range s.ECUs {
		if g.Name == srcECU || g.Name == dstECU {
			continue
		}
		b1, err1 := sharedBus(s, srcECU, g.Name)
		b2, err2 := sharedBus(s, g.Name, dstECU)
		if err1 == nil && err2 == nil && b1 != b2 {
			return b1, g.Name, b2, nil
		}
	}
	return "", "", "", fmt.Errorf("vfb: no path (direct or one-gateway) between ECUs %s and %s", srcECU, dstECU)
}

// sharedBus picks the bus connecting two ECUs, erroring when none exists
// and preferring deterministic (alphabetical) choice when several do.
func sharedBus(s *model.System, a, b string) (string, error) {
	ea, eb := s.ECUByName(a), s.ECUByName(b)
	onA := map[string]bool{}
	for _, bus := range ea.Buses {
		onA[bus] = true
	}
	var shared []string
	for _, bus := range eb.Buses {
		if onA[bus] {
			shared = append(shared, bus)
		}
	}
	if len(shared) == 0 {
		return "", fmt.Errorf("vfb: ECUs %s and %s share no bus", a, b)
	}
	sort.Strings(shared)
	return shared[0], nil
}

// ByBus groups the remote routes per bus — the communication matrix that
// the RTE generator and the schedule synthesizers consume.
func ByBus(routes []Route) map[string][]Route {
	out := map[string][]Route{}
	for _, r := range routes {
		if r.Local {
			continue
		}
		out[r.Bus] = append(out[r.Bus], r)
		if r.Via != "" {
			// The gatewayed second segment loads its bus too.
			out[r.Bus2] = append(out[r.Bus2], r)
		}
	}
	return out
}
