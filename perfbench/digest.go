package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// mix derives a sub-seed from the workload seed (splitmix64 finalizer),
// so every input of a run is a pure function of (seed, index).
func mix(seed, k uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + k + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// digestJSON hashes v's JSON encoding (struct fields in declaration
// order, map keys sorted).
func digestJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return digestBytes(b), nil
}

// digestOf digests a request's output ("" for none).
func digestOf(out any) (string, error) {
	if out == nil {
		return "", nil
	}
	return digestJSON(out)
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// goldenFile maps a workload to the output digest of each of its inputs
// at the default seed.
type goldenFile map[string][]string

func loadGolden(path string) (goldenFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// writeGolden recomputes every input's digest at the default seed and
// stores them under the workload's name, keeping the other workloads'.
func writeGolden(o options) error {
	if o.seed != defaultSeed {
		return fmt.Errorf("golden digests are pinned at the default seed %d", defaultSeed)
	}
	g, err := loadGolden(o.goldenPath())
	if errors.Is(err, os.ErrNotExist) {
		g, err = goldenFile{}, nil
	}
	if err != nil {
		return err
	}
	w, err := newWorkload(o)
	if err != nil {
		return err
	}
	if !w.golden() {
		return fmt.Errorf("%s outputs are checked against experiments_output.txt, not golden digests", o.workload)
	}
	if err := w.setup(); err != nil {
		return err
	}
	digests := make([]string, w.inputs())
	for i := range digests {
		if digests[i], err = w.reference(i, o.workers); err != nil {
			return fmt.Errorf("input %d: %w", i, err)
		}
	}
	g[o.workload] = digests
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.goldenPath(), append(b, '\n'), 0o644)
}

// historyEntry is one line of the trajectory file.
type historyEntry struct {
	Time     string            `json:"time"`
	Commit   string            `json:"commit"`
	CPU      string            `json:"cpu"`
	NumCPU   int               `json:"ncpu"`
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Traced   bool              `json:"traced"`
	Failed   int               `json:"failed"`
	Metrics  map[string]metric `json:"metrics"`
}

// appendHistory appends the run's metrics, the commit and the CPU model
// to the trajectory file, so drift shows across commits and hosts.
func appendHistory(o options, res *result) error {
	e := historyEntry{
		Time: time.Now().UTC().Format(time.RFC3339), Commit: commit(), CPU: cpuModel(),
		NumCPU: o.workers, Workload: o.workload, Seed: o.seed, Seconds: o.seconds,
		Traced: o.trace, Failed: res.Failed, Metrics: res.Metrics,
	}
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(o.history, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commit names the checked-out commit: git's HEAD, else "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// cpuModel reads the host CPU model from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sortedKeys returns a map's keys in order (map iteration order must not
// leak into digests or output).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
