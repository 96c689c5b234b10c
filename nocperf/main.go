// Command nocperf is the repository benchmark. It drives one named
// workload through the simulator's public entry points, checks every
// output, and prints each metric with its unit and whether it is host
// time or simulated time. The last line of standard output is one JSON
// object holding the metrics that BENCHMARK.json names: its end_to_end
// list for an untraced run (-trace 0), its per_layer list for a traced
// run (-trace 1).
//
// Usage (from the repository root, after building with nocperf/run.sh):
//
//	nocperf -workload fig1-soc|mesh-rig-knee|server-mix -seed N [-seconds S] -trace 0|1
//
// -seconds defaults to run_seconds in BENCHMARK.json.
//
// Every number is taken from outside the program: the benchmark times
// its own calls into each layer and reads the layers' public statistics
// afterwards. The workload seed is an argument; the program under test
// only ever sees the scenario documents generated from it. RATIONALE.md
// records why each workload exists and which metric each layer should
// move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// options is one benchmark invocation.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string // traced runs write their span file and profiles here

	// scale shrinks every workload's inputs (1 = full size); the self
	// test runs at a small scale.
	scale float64
	// faults injects failures the correctness gate must count; only the
	// self test sets them.
	faults faults
}

// faults are deliberate defects the self test injects.
type faults struct {
	scribbleMemory bool // fig1-soc: overwrite a generator's memory window mid-run
	noDrain        bool // mesh-rig-knee: cap the drain phase at one cycle
	corruptHits    bool // server-mix: flip a byte of every cache-hit body
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(options) (*report, error){
	"fig1-soc":      fig1.measure,
	"mesh-rig-knee": meshRig.measure,
	"server-mix":    runServerMix,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nocperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fig1-soc, mesh-rig-knee or server-mix")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 0, "how long the timed phase measures (default: run_seconds of the spec)")
	trace := fs.Int("trace", 0, "0: untraced run printing end-to-end metrics; 1: traced run printing per-layer metrics")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics to print")
	outDir := fs.String("out", ".bench_build", "directory for the traced run's span file and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "nocperf: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds < 0 {
		fmt.Fprintln(stderr, "nocperf: -trace must be 0 or 1 and -seconds positive")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "nocperf:", err)
		return 1
	}
	if *seconds == 0 {
		*seconds = float64(sp.RunSeconds)
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir, scale: 1}
	rep, err := fn(opt)
	if err != nil {
		fmt.Fprintf(stderr, "nocperf: %s: %v\n", *name, err)
		return 1
	}
	want := sp.EndToEnd
	if opt.trace {
		want = sp.PerLayer
	}
	if err := rep.emit(stdout, want); err != nil {
		fmt.Fprintf(stderr, "nocperf: %s: %v\n", *name, err)
		return 1
	}
	return 0
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the benchmark reads: how long a
// run measures, and which metrics the final JSON line carries, in which
// unit.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 || sp.RunSeconds <= 0 {
		return nil, fmt.Errorf("%s: no run_seconds, end_to_end or per_layer metrics", path)
	}
	return &sp, nil
}

// metric is one measured value. kind says what the number is measured
// in: "host" (the simulator's own time, memory or rate), "simulated"
// (the modelled hardware's cycles), or "check" (a correctness tally).
type metric struct {
	name, unit, kind, note string
	value                  float64
}

// report collects one workload run's metrics and its correctness tally.
type report struct {
	workload string
	metrics  []metric

	attempted, failed int
	failures          []string // first few failure messages
	lines             []string // informational lines printed before the metrics
}

func newReport(workload string) *report { return &report{workload: workload} }

// set records a metric, replacing an earlier value of the same name.
func (r *report) set(name string, v float64, unit, kind, note string) {
	m := metric{name: name, unit: unit, kind: kind, note: note, value: v}
	for i := range r.metrics {
		if r.metrics[i].name == name {
			r.metrics[i] = m
			return
		}
	}
	r.metrics = append(r.metrics, m)
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// op tallies one checked operation; a non-nil err marks it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail counts a failure without a new attempt: a check over outputs
// already attempted (a replay digest, a cross-path byte comparison).
func (r *report) fail(err error) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, err.Error())
	}
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// emit prints the human-readable report and then, as the last line,
// the JSON object carrying exactly the metrics in want.
func (r *report) emit(w io.Writer, want []specMetric) error {
	r.setFailFrac()
	for _, l := range r.lines {
		fmt.Fprintf(w, "%s  %s\n", r.workload, l)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "%s  FAILED: %s\n", r.workload, f)
	}
	ms := append([]metric(nil), r.metrics...)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		fmt.Fprintf(w, "%s  %-26s %16.6g %-7s %-9s %s\n", r.workload, m.name, m.value, m.unit, m.kind, m.note)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]jsonMetric{}}
	var errs []error
	for _, sm := range want {
		m, ok := r.get(sm.Name)
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s was not measured", sm.Name))
		case m.unit != sm.Unit:
			errs = append(errs, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", sm.Name, m.unit, sm.Unit))
		case math.IsNaN(m.value) || math.IsInf(m.value, -1):
			errs = append(errs, fmt.Errorf("metric %s is %v", sm.Name, m.value))
		case math.IsInf(m.value, 1):
			// A percentile that lands on failed ops: slower than any
			// limit, written as the largest number JSON can carry.
			out.Metrics[sm.Name] = jsonMetric{math.MaxFloat64, m.unit}
		default:
			out.Metrics[sm.Name] = jsonMetric{m.value, m.unit}
		}
	}
	if r.attempted < 1 {
		errs = append(errs, errors.New("no operation was attempted"))
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// setFailFrac records the correctness tally as fail_frac, the share of
// ops that failed. The JSON carries the tally itself (correct, failed):
// any failure fails the run.
func (r *report) setFailFrac() {
	r.set("fail_frac", ratio(float64(r.failed), float64(r.attempted)), "ratio", "check",
		fmt.Sprintf("%d failed of %d ops", r.failed, r.attempted))
}
