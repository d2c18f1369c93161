// Command perfbench is autorte's benchmark: one binary that runs one of
// four named workloads against the platform's public Go API, checks every
// output, and prints the end-to-end metrics (or, with -trace 1, the
// per-module metrics) as one JSON object on the last line of stdout.
//
//	perfbench -workload drive|verify|explore|campaign -seed N -seconds S -trace 0|1
//
// Every workload is a closed loop with one client: the next request is
// issued when the previous one returns. Internal fan-out is capped at
// runtime.NumCPU() workers. See README.md for what each workload
// exercises and which metric each module should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeed is the seed whose outputs are pinned by golden.json.
const defaultSeed = 1

func (o options) goldenPath() string { return filepath.Join(o.root, "perfbench", "golden.json") }
func (o options) outDir() string     { return filepath.Join(o.root, ".bench_build", "perfbench") }

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// workers caps internal fan-out (the pipeline pool, search
	// parallelism, campaign scenario fan-out): the host's CPU count.
	workers int
	// scale shrinks the inputs for the quick tests (1 = benchmark size).
	scale float64
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// root is the repository checkout (the working directory; the tests
	// run one level below it); the golden digests live in root/perfbench
	// and traced-run artefacts (Chrome trace, CPU profile) go to
	// root/.bench_build/perfbench.
	root        string
	writeGolden bool
	// history, when set, is the trajectory file a run appends to.
	history string
	// corrupt deliberately falsifies the first request's output, so the
	// tests can show a wrong output is counted as failed.
	corrupt bool
	log     io.Writer
}

// metric is one named measurement as printed in the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// samples is the number of timed requests behind the percentiles.
	samples int
}

func main() {
	o := options{workers: runtime.NumCPU(), scale: 1, setups: 3, root: ".", log: os.Stderr}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: drive, verify, explore or campaign")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-module metrics")
	flag.BoolVar(&o.writeGolden, "write-golden", false, "regenerate the workload's golden digests at the default seed and exit")
	flag.StringVar(&o.history, "history", "", "append this run's metrics to the given trajectory file")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	if err := mainErr(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(o options) error {
	if o.writeGolden {
		return writeGolden(o)
	}
	res, err := run(o)
	if err != nil {
		return err
	}
	printHuman(os.Stdout, res)
	if o.history != "" {
		if err := appendHistory(o, res); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(os.Stdout, string(line))
	return err
}

// printHuman lists every metric by name with its unit, one per line,
// the timings with their sample count.
func printHuman(w io.Writer, res *result) {
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		n := ""
		if strings.HasSuffix(name, "p50_ms") || strings.HasSuffix(name, "p90_ms") {
			n = fmt.Sprintf(" (n=%d)", res.samples)
		}
		fmt.Fprintf(w, "%-34s %14.6g %s%s\n", name, m.Value, m.Unit, n)
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "%-34s %14.6g ratio (%d of %d requests)\n", "failed_frac", frac, res.Failed, res.Attempted)
}
