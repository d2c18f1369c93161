package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"autorte/internal/experiments"
	"autorte/internal/model"
)

// campaign runs the fault campaigns round-robin: request i is one run of
// E11 (fault-injection campaign), E13 (fail-operational availability) or
// E14 (observer quorum), by i mod 3, each fanning its scenarios out over
// the worker pool — many short-lived platforms, the health escalation
// ladder, the fault injectors, and availability scored from retained
// trace records. The three experiments are the workload's inputs. At the
// default seed the campaigns run at their published configuration, so
// the rendered tables must match experiments_output.txt.
type campaign struct {
	o   options
	e11 experiments.E11Config
	e13 experiments.E13Config
	e14 experiments.E14Config
	// Vehicles for the micro tier: the campaigns' systems are built
	// inside the experiments, so these are generated from the seed.
	fleet []*model.System
	// last is each experiment's most recent measured table, checked
	// against experiments_output.txt after the run.
	last [campaignKinds]*experiments.Table
}

const campaignKinds = 3

func newCampaign(o options) *campaign { return &campaign{o: o} }

func (c *campaign) inputs() int    { return campaignKinds }
func (c *campaign) parallel() bool { return true }

// golden is false: the tables are pinned by experiments_output.txt.
func (c *campaign) golden() bool { return false }

func (c *campaign) vehicles() []*model.System { return c.fleet }

func (c *campaign) setup() error {
	c.e11, c.e13, c.e14 = experiments.DefaultE11(), experiments.DefaultE13(), experiments.DefaultE14()
	if c.o.seed != defaultSeed {
		c.e11.Seed, c.e13.Seed, c.e14.Seed = mix(c.o.seed, 11), mix(c.o.seed, 13), mix(c.o.seed, 14)
	}
	c.last = [campaignKinds]*experiments.Table{}
	var err error
	if c.fleet, err = seedFleet(c.o.seed); err != nil {
		return err
	}
	// One run of each experiment fills lazily built state before timing.
	for k := 0; k < campaignKinds; k++ {
		if _, err := c.experiment(k, c.o.workers, &instr{}); err != nil {
			return err
		}
	}
	return nil
}

// campaignOut is one experiment's table; it is rendered when the harness
// digests it, outside the timed request.
type campaignOut struct{ *experiments.Table }

func (t campaignOut) render() string {
	var b bytes.Buffer
	t.Render(&b)
	return b.String()
}

func (t campaignOut) MarshalJSON() ([]byte, error) { return json.Marshal(t.render()) }

// experiment runs experiment k (0: E11, 1: E13, 2: E14) on the given
// number of workers.
func (c *campaign) experiment(k, workers int, in *instr) (campaignOut, error) {
	var (
		tab  *experiments.Table
		err  error
		name string
	)
	switch k {
	case 0:
		cfg := c.e11
		cfg.Workers = workers
		sp := in.span("experiments.E11FaultCampaign")
		tab, err = experiments.E11FaultCampaign(cfg)
		sp.End()
		name = "E11"
	case 1:
		cfg := c.e13
		cfg.Workers = workers
		sp := in.span("experiments.E13Availability")
		tab, err = experiments.E13Availability(cfg)
		sp.End()
		name = "E13"
	default:
		cfg := c.e14
		cfg.Workers = workers
		sp := in.span("experiments.E14Observer")
		tab, err = experiments.E14Observer(cfg)
		sp.End()
		name = "E14"
	}
	if err != nil {
		return campaignOut{}, fmt.Errorf("%s: %w", name, err)
	}
	return campaignOut{tab}, nil
}

func (c *campaign) request(i int, in *instr) (int, any, error) {
	k := i % campaignKinds
	out, err := c.experiment(k, c.o.workers, in)
	if err != nil {
		return k, nil, err
	}
	c.last[k] = out.Table
	return k, out, nil
}

func (c *campaign) twin(i int) (int, error) {
	k := i % campaignKinds
	_, err := c.experiment(k, c.o.workers, &instr{})
	return k, err
}

func (c *campaign) settle(*ledger, *instr) error { return nil }

// finish checks, at the default seed, that every experiment's last
// measured table appears verbatim in the repository's published
// experiments_output.txt.
func (c *campaign) finish(l *ledger, _ *instr) error {
	if c.o.seed != defaultSeed {
		return nil
	}
	published, err := os.ReadFile(filepath.Join(c.o.root, "experiments_output.txt"))
	if err != nil {
		return err
	}
	for k, tab := range c.last {
		if tab != nil && !strings.Contains(string(published), campaignOut{tab}.render()) {
			l.fail(k, fmt.Sprintf("table %q differs from experiments_output.txt", tab.Title))
		}
	}
	return nil
}

func (c *campaign) reference(input, workers int) (string, error) {
	out, err := c.experiment(input, workers, &instr{})
	if err != nil {
		return "", err
	}
	return digestJSON(out)
}
