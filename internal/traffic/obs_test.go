package traffic

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"gonoc/internal/obs"
	"gonoc/internal/transport"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// tinyCfg is the seeded configuration shared by the observability
// tests: small enough that its Chrome trace is a reviewable golden
// file, busy enough to exercise multi-hop paths and both directions.
func tinyCfg() Config {
	return Config{
		Seed: 7, Nodes: 4, Topology: transport.Mesh, MeshW: 2, MeshH: 2,
		Pattern: UniformRandom, Rate: 0.05, PayloadBytes: 16,
		Warmup: -1, Measure: 120, Drain: 400,
	}
}

// TestChromeTraceGolden pins the Chrome trace_event output of a tiny
// seeded run byte for byte. Regenerate with `go test -run Golden
// -update ./internal/traffic` and eyeball the diff (the file opens in
// Perfetto / chrome://tracing).
func TestChromeTraceGolden(t *testing.T) {
	rec := &obs.SpanRecorder{}
	cfg := tinyCfg()
	cfg.Probe = rec
	Run(cfg)
	if rec.Len() == 0 {
		t.Fatal("tiny run recorded no span events")
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	// Whatever the golden says, the output must be valid JSON with the
	// trace_event envelope Perfetto expects.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	golden := filepath.Join("testdata", "chrome_tiny.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Chrome trace diverged from golden (len %d vs %d); rerun with -update and review the diff",
			buf.Len(), len(want))
	}
}

// TestProbePassive asserts that attaching the full probe stack changes
// nothing about a run's measured results: instrumentation observes, it
// never perturbs. Together with the seeded E1–E12 shape tests (which
// run with the probe disabled) and the CI allocs/op guard, this is the
// "disabled probe changes nothing, enabled probe only watches"
// regression pair.
func TestProbePassive(t *testing.T) {
	bare := Run(tinyCfg())

	cfg := tinyCfg()
	rec := &obs.SpanRecorder{}
	mon := obs.NewLinkMonitor(64)
	cfg.Probe = obs.Multi(rec, mon)
	probed := Run(cfg)

	a, err := json.Marshal(bare)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(probed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("probe perturbed the run:\nbare:   %s\nprobed: %s", a, b)
	}
	if rec.Len() == 0 || mon.Report("").TotalFlits == 0 {
		t.Fatal("probe attached but observed nothing")
	}
}

// TestHeatmapFlitConservation asserts the heatmap's accounting is
// exact: per-link flit counts sum to the report total, which equals
// the fabric's own forwarded-flit counter for the run.
func TestHeatmapFlitConservation(t *testing.T) {
	for _, topo := range []transport.Topology{transport.Crossbar, transport.Mesh, transport.Torus, transport.Ring, transport.Tree} {
		cfg := tinyCfg()
		cfg.Topology = topo
		mon := obs.NewLinkMonitor(64)
		cfg.Probe = mon
		res := Run(cfg)
		rep := mon.Report(topo.String())
		var sum uint64
		for _, l := range rep.Links {
			sum += l.Flits
		}
		if sum != rep.TotalFlits {
			t.Errorf("%s: per-link sum %d != report total %d", topo, sum, rep.TotalFlits)
		}
		if rep.TotalFlits != res.FabricFlits {
			t.Errorf("%s: heatmap total %d != fabric flit count %d", topo, rep.TotalFlits, res.FabricFlits)
		}
		if res.FabricFlits == 0 {
			t.Errorf("%s: run moved no flits", topo)
		}
	}
}

// TestCampaignHeatmaps asserts per-point heatmaps come back labeled, in
// point order, with exact flit accounting, and that requesting them
// does not change the points themselves (probes are passive and
// per-point).
func TestCampaignHeatmaps(t *testing.T) {
	ccfg := CampaignConfig{
		Base:       tinyCfg(),
		Topologies: []transport.Topology{transport.Crossbar, transport.Mesh},
		Patterns:   []Pattern{UniformRandom},
		Rates:      []float64{0.02, 0.05},
		Workers:    2,
	}
	plain := Campaign(ccfg)
	ccfg.HeatmapBuckets = 64
	cr := Campaign(ccfg)
	if len(cr.Heatmaps) != len(cr.Points) {
		t.Fatalf("%d heatmaps for %d points", len(cr.Heatmaps), len(cr.Points))
	}
	for i, hm := range cr.Heatmaps {
		if hm.TotalFlits != cr.Points[i].FabricFlits {
			t.Errorf("point %d (%s): heatmap total %d != fabric flits %d",
				i, hm.Label, hm.TotalFlits, cr.Points[i].FabricFlits)
		}
	}
	if cr.Heatmaps[0].Label != "crossbar/uniform@0.02" {
		t.Fatalf("label = %q", cr.Heatmaps[0].Label)
	}
	a, _ := json.Marshal(plain.Points)
	b, _ := json.Marshal(cr.Points)
	if !bytes.Equal(a, b) {
		t.Fatal("heatmap collection changed campaign points")
	}
}
