package soc

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gonoc/internal/stats"
	"gonoc/internal/transport"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestNoCGolden pins the Fig-1 SoC path — generators, protocol engines,
// NIUs and the transport fabric beneath them — byte for byte. Each
// config is what `nocsim -seed 1 -topology T -mode M [-wb]` builds (40
// write/read-back pairs per master, QoS on), and the golden holds what
// nocsim prints (per-master latency, NIU statistics, fabric packet
// counts) plus every switch's RouterStats, so any change to NIU or
// switch behaviour fails here rather than only in the packet rig's
// goldens. Regenerate (only when an intentional model change lands)
// with `go test -run NoCGolden -update ./internal/soc`.
func TestNoCGolden(t *testing.T) {
	topos := []struct {
		name string
		topo transport.Topology
	}{{"crossbar", transport.Crossbar}, {"mesh", transport.Mesh}, {"torus", transport.Torus}, {"ring", transport.Ring}, {"tree", transport.Tree}}
	for _, tp := range topos {
		for _, mode := range []string{"wormhole", "saf"} {
			for _, wb := range []bool{false, true} {
				name := tp.name + "_" + mode
				if wb {
					name += "_wb"
				}
				t.Run(name, func(t *testing.T) {
					cfg := Config{Seed: 1, RequestsPerMaster: 40, Wishbone: wb, Topology: tp.topo}
					cfg.Net.QoS = true
					if mode == "saf" {
						cfg.Net.Mode = transport.StoreAndForward
						cfg.Net.BufDepth = 64
					}
					checkGolden(t, name, nocReport(t, cfg))
				})
			}
		}
	}
}

// nocReport runs one NoC build to completion and renders the nocsim
// tables followed by per-switch counters.
func nocReport(t *testing.T, cfg Config) []byte {
	t.Helper()
	s := BuildNoC(cfg)
	cycles, err := s.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%d masters finished in %d cycles\n\n", len(s.Gens), cycles)
	masters := []string{"axi", "ocp", "ahb", "pvci", "bvci", "avci", "prop"}
	if cfg.Wishbone {
		masters = append(masters, "wb")
	}
	mt := stats.NewTable("per-master results",
		"master", "pairs", "mean lat (cyc)", "p50", "p95", "max", "mismatches")
	nt := stats.NewTable("NIU statistics", "NIU", "issued", "completed", "posted", "stall cycles", "peak table")
	for _, name := range masters {
		g := s.Gens[name].Stats()
		mt.AddRow(name, g.Completed, g.Latency.Mean(), g.Latency.Percentile(50),
			g.Latency.Percentile(95), g.Latency.Max(), g.Mismatches)
		st := s.MasterNIUs[name].Stats()
		nt.AddRow(name, st.Issued, st.Completed, st.Posted, st.StallCycles, st.PeakTable)
	}
	fmt.Fprintln(&b, mt.Render())
	fmt.Fprintln(&b, nt.Render())
	fmt.Fprintf(&b, "fabric: %d packets injected, %d ejected\n\n", s.Net.Injected(), s.Net.Ejected())
	for _, r := range s.Net.Routers() {
		st := r.Stats()
		fmt.Fprintf(&b, "%s: flits=%d pkts=%d lock-stalls=%d busy-stalls=%d out-busy=%v out-stall=%v\n",
			r.Name(), st.FlitsMoved, st.PktsMoved, st.LockStalls, st.BusyStalls, st.OutBusy, st.OutStall)
	}
	return b.Bytes()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", "nocsim_"+name+".golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s diverged from seed-pinned golden; if the model change is intentional, rerun with -update and review the diff\n--- got ---\n%s",
			name, got)
	}
}
