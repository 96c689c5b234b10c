package scenario

import (
	"bytes"
	"testing"

	"gonoc/internal/obs/metrics"
	"gonoc/internal/stats"
	"gonoc/internal/traffic"
)

func resultBytes(t *testing.T, s *Scenario, in *Instruments) []byte {
	t.Helper()
	rep, err := Execute(s, in)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := stats.WriteJSON(&buf, rep.Result()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestInstrumentsPassive: attaching every passive instrument — the
// per-router collector as probe, a registry, a self-profile, progress
// counters and OnPoint — leaves each mode's result bytes unchanged, and
// every mode reports its points to both Progress and OnPoint (single
// and trans runs as one point).
func TestInstrumentsPassive(t *testing.T) {
	sweep := ringScenario("sweep")
	sweep.Measure.SweepRates = []float64{0.02, 0.06}
	campaign := ringScenario("campaign")
	campaign.Measure.Campaign = &Campaign{Topologies: []string{"ring", "mesh"},
		Rates: []float64{0.02, 0.06}, Workers: 2}
	trans := &Scenario{Version: Version, Name: "trans", Seed: 3,
		Fabric:   Fabric{Topology: "crossbar"},
		Workload: Workload{Kind: KindSoC},
		Measure:  Measure{Measure: 400, Drain: 8000}}
	for _, p := range []string{"axi", "ocp", "ahb", "pvci", "bvci", "avci", "prop"} {
		trans.Workload.Masters = append(trans.Workload.Masters, MasterRole{Protocol: p, Rate: 0.1})
	}
	cases := []struct {
		s      *Scenario
		points int
		label  string // of the last point, when the order is fixed
	}{
		{ringScenario("single"), 1, "ring/uniform@0.05"},
		{sweep, 2, "ring/uniform@0.06"},
		{campaign, 4, ""},
		{trans, 1, "trans@0.1"},
	}
	for _, c := range cases {
		t.Run(c.s.Name, func(t *testing.T) {
			bare := resultBytes(t, c.s, nil)
			reg := metrics.NewRegistry()
			in := &Instruments{
				Probe:    metrics.NewFabricCollector(reg),
				Metrics:  reg,
				Prof:     metrics.NewSimProfile(reg),
				Progress: metrics.NewProgress(reg),
			}
			var labels []string
			in.OnPoint = func(pd traffic.PointDone) { labels = append(labels, pd.Label) }
			if got := resultBytes(t, c.s, in); !bytes.Equal(bare, got) {
				t.Fatal("instrumented result bytes differ from the bare run")
			}
			if len(labels) != c.points {
				t.Fatalf("OnPoint saw %d points, want %d", len(labels), c.points)
			}
			if c.label != "" && labels[len(labels)-1] != c.label {
				t.Fatalf("last point label %q, want %q", labels[len(labels)-1], c.label)
			}
			if p := in.Progress.Snapshot(); p.PointsDone != c.points || p.PointsTotal != c.points {
				t.Fatalf("progress %d/%d, want %d/%d", p.PointsDone, p.PointsTotal, c.points, c.points)
			}
		})
	}
}
