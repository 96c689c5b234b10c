package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The self test runs every workload at a tiny size, untraced and
// traced, and checks the output contract; then it injects one fault per
// workload and checks that the correctness gate counts it.

const specFile = "../BENCHMARK.json"

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func tiny(t *testing.T, trace bool) options {
	return options{seed: 7, seconds: 0.01, trace: trace, outDir: t.TempDir(), scale: 0.05}
}

// lastJSON parses the final output line.
func lastJSON(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	return res
}

func TestEveryMetricIsPrintedWithItsUnit(t *testing.T) {
	sp, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := fn(tiny(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			var buf bytes.Buffer
			if err := rep.emit(&buf, want); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res := lastJSON(t, buf.String())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", name, trace, res.Correct, res.Failed, res.Attempted, buf.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the JSON, BENCHMARK.json lists %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or not in %s: %+v", name, trace, m.Name, m.Unit, got)
				}
				if !strings.Contains(buf.String(), m.Name+" ") {
					t.Errorf("%s trace=%v: metric %s missing from the readable report", name, trace, m.Name)
				}
			}
		}
	}
}

func TestInjectedFaultsCountInFailFrac(t *testing.T) {
	for name, f := range map[string]faults{
		"fig1-soc":      {scribbleMemory: true},
		"mesh-rig-knee": {noDrain: true},
		"server-mix":    {corruptHits: true},
	} {
		opt := tiny(t, false)
		opt.faults = f
		rep, err := workloads[name](opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := rep.emit(&buf, []specMetric{{"fail_frac", "ratio"}}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := lastJSON(t, buf.String())
		if res.Correct || res.Failed == 0 || res.Metrics["fail_frac"].Value <= 0 {
			t.Errorf("%s: injected fault not counted: %+v", name, res)
		}
	}
}

func TestCommandLine(t *testing.T) {
	// Without -seconds a run lasts the spec's run_seconds; one second
	// here, in a copy of the spec.
	data, err := os.ReadFile(specFile)
	if err != nil {
		t.Fatal(err)
	}
	var sp map[string]any
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	sp["run_seconds"] = 1
	short := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if data, err = json.Marshal(sp); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(short, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	args := []string{"-workload", "mesh-rig-knee", "-seed", "3", "-trace", "0", "-spec", short, "-out", t.TempDir()}
	start := time.Now()
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if d := time.Since(start); d < time.Second {
		t.Errorf("run took %v, want at least the spec's run_seconds of 1 s", d)
	}
	if res := lastJSON(t, out.String()); !res.Correct {
		t.Errorf("full-size run failed: %s", out.String())
	}
	for _, bad := range [][]string{
		{"-workload", "nope"},
		{"-workload", "fig1-soc", "-trace", "2"},
		{"-workload", "fig1-soc", "-spec", "missing.json"},
	} {
		out.Reset()
		if code := run(bad, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", bad, code, out.String())
		}
	}
}
