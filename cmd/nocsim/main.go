// Command nocsim builds one mixed-protocol SoC — the paper's Fig-1 NoC or
// the Fig-2 bridged reference bus — runs a seeded self-checking workload
// on its mixed-socket masters (seven, or eight with -wb), and prints
// per-master latency and interconnect statistics.
//
// Usage:
//
//	nocsim [-system noc|bus] [-topology crossbar|mesh|torus|ring|tree]
//	       [-mode wormhole|saf] [-seed N] [-requests N] [-qos] [-wb]
//	       [-trace FILE] [-heatmap FILE] [-metrics-addr ADDR]
//	       [-metrics-out FILE] [-metrics-interval D] [-scenario NAME|FILE]
//
// -wb (NoC only) adds an eighth master — a WISHBONE IP behind its NIU —
// and a WISHBONE memory target to the demo topology.
//
// -trace (NoC only) writes the run's transaction/packet lifecycle spans
// as a Chrome trace_event file (open in Perfetto or chrome://tracing);
// -heatmap (NoC only) writes the per-link congestion heatmap JSON. Both
// come from internal/obs and observe the whole run.
//
// -metrics-addr serves live Prometheus metrics (/metrics) and a JSON
// progress document (/progress) over HTTP while the workload runs;
// -metrics-out appends periodic self-profiling snapshots as JSONL at
// the -metrics-interval cadence (internal/obs/metrics, reference in
// docs/OBSERVABILITY.md). Enabling them never changes seeded results.
//
// -scenario NAME|FILE (NoC only) builds the system from a declarative
// soc-kind scenario (internal/scenario, docs/SCENARIOS.md): topology,
// switching mode, QoS, WISHBONE inclusion, per-master NIU priorities,
// and the generator workload size all come from the file, and
// explicitly set flags override their scenario fields. A flag-only run
// is the same path from a default scenario with every flag applied.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"gonoc/internal/obs"
	"gonoc/internal/obs/metrics"
	"gonoc/internal/scenario"
	"gonoc/internal/soc"
	"gonoc/internal/stats"
)

func main() {
	system := flag.String("system", "noc", "interconnect: noc (Fig 1) or bus (Fig 2)")
	topo := flag.String("topology", "crossbar", "NoC topology: crossbar, mesh, torus, ring, tree")
	mode := flag.String("mode", "wormhole", "NoC switching: wormhole or saf")
	seed := flag.Int64("seed", 1, "random seed")
	requests := flag.Int("requests", 40, "write/read-back pairs per master")
	qos := flag.Bool("qos", true, "enable priority arbitration in switches")
	wb := flag.Bool("wb", false, "NoC only: add the WISHBONE master IP and memory target")
	traceFile := flag.String("trace", "", "NoC only: write a Chrome trace_event file (Perfetto/chrome://tracing)")
	heatFile := flag.String("heatmap", "", "NoC only: write the per-link congestion heatmap JSON")
	scenarioFlag := flag.String("scenario", "", "NoC only: build the SoC from a soc-kind scenario — a built-in name or a *.scenario.json file; explicit flags override (docs/SCENARIOS.md)")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics over HTTP while the workload runs: /metrics (Prometheus text) and /progress (JSON)")
	metricsOut := flag.String("metrics-out", "", "append periodic self-profiling snapshots as JSONL to this file")
	metricsEvery := flag.Duration("metrics-interval", 250*time.Millisecond, "snapshot cadence for -metrics-out")
	flag.Parse()

	if *seed == 0 {
		// A scenario's seed 0 means "omitted" and selects the default.
		log.Fatal("-seed 0 is not a seed a scenario can carry (0 selects the default seed 1); use a positive seed")
	}
	if *wb && *system != "noc" {
		log.Fatal("-wb requires -system noc (the Fig-2 bus has no WISHBONE bridge)")
	}
	if *scenarioFlag != "" && *system != "noc" {
		log.Fatal("-scenario requires -system noc (scenarios declare NoC compositions)")
	}
	if (*traceFile != "" || *heatFile != "") && *system != "noc" {
		log.Fatal("-trace/-heatmap require -system noc (the Fig-2 bus has no fabric to instrument)")
	}
	var rec *obs.SpanRecorder
	var mon *obs.LinkMonitor
	var probes []obs.Probe
	if *traceFile != "" {
		rec = &obs.SpanRecorder{}
		probes = append(probes, rec)
	}
	if *heatFile != "" {
		mon = obs.NewLinkMonitor(obs.DefaultHeatmapBucket)
		probes = append(probes, mon)
	}

	// Live-metrics stack (-metrics-addr / -metrics-out): shared registry,
	// simulator self-profile, and per-router fabric collector. Purely
	// observational — seeded results are identical with it on or off.
	var reg *metrics.Registry
	var prof *metrics.SimProfile
	var prog *metrics.Progress
	var snap *metrics.Snapshotter
	var outFile *os.File
	if *metricsAddr != "" || *metricsOut != "" {
		reg = metrics.NewRegistry()
		prof = metrics.NewSimProfile(reg)
		prog = metrics.NewProgress(reg)
		probes = append(probes, metrics.NewFabricCollector(reg))
		if *metricsOut != "" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				log.Fatal(err)
			}
			outFile = f
			snap = metrics.NewSnapshotter(f, *metricsEvery, reg, prof, prog)
			prof.SetSnapshotter(snap)
		}
		if *metricsAddr != "" {
			srv := metrics.NewServer(reg, prof, prog)
			addr, err := srv.Start(*metricsAddr)
			if err != nil {
				log.Fatal(err)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "serving live metrics on http://%s/metrics (progress: http://%s/progress)\n", addr, addr)
		}
	}
	sc := defaultScenario()
	if *scenarioFlag != "" {
		sc = loadScenario(*scenarioFlag)
	}
	// One flag→field mapping: a flag-only run applies every flag to the
	// default scenario, -scenario only the explicitly set ones.
	visit := flag.Visit
	if *scenarioFlag == "" {
		visit = flag.VisitAll
	}
	visit(func(f *flag.Flag) {
		switch f.Name {
		case "topology":
			sc.Fabric.Topology = *topo
		case "mode":
			sc.Fabric.Mode = *mode
		case "qos":
			sc.Fabric.QoS = *qos
		case "seed":
			sc.Seed = *seed
		case "requests":
			sc.Workload.RequestsPerMaster = *requests
		case "wb":
			sc.Workload.Wishbone = *wb
		}
	})
	if err := sc.Validate(); err != nil {
		log.Fatal(err)
	}
	cfg, err := sc.SoCConfig()
	if err != nil {
		log.Fatal(err)
	}
	switching := "wormhole"
	if sc.Fabric.Mode == "saf" {
		switching = "saf"
	}
	label := fmt.Sprintf("nocsim/%s/%s", sc.Fabric.Topology, switching)
	cfg.Probe = obs.Multi(probes...)

	var s *soc.System
	switch *system {
	case "noc":
		s = soc.BuildNoC(cfg)
	case "bus":
		s = soc.BuildBus(cfg)
	default:
		log.Fatalf("unknown system %q", *system)
	}
	s.Prof = prof

	prof.SetPhase(metrics.PhaseMeasure)
	prog.SetTotal(1)
	prog.PointStart()
	start := time.Now()
	cycles, err := s.Run(50_000_000)
	if err != nil {
		log.Fatal(err)
	}
	prof.SetPhase(metrics.PhaseDone)
	prog.PointDone(label, float64(time.Since(start).Microseconds())/1e3)

	fmt.Printf("system=%s topology=%s mode=%s seed=%d: %d masters finished in %d cycles\n\n",
		*system, sc.Fabric.Topology, switching, cfg.Seed, len(s.Gens), cycles)

	masters := []string{"axi", "ocp", "ahb", "pvci", "bvci", "avci", "prop"}
	if cfg.Wishbone {
		masters = append(masters, "wb")
	}
	t := stats.NewTable("per-master results",
		"master", "pairs", "mean lat (cyc)", "p50", "p95", "max", "mismatches")
	for _, name := range masters {
		g := s.Gens[name].Stats()
		t.AddRow(name, g.Completed, g.Latency.Mean(), g.Latency.Percentile(50),
			g.Latency.Percentile(95), g.Latency.Max(), g.Mismatches)
	}
	fmt.Println(t.Render())

	if s.Net != nil {
		nt := stats.NewTable("NIU statistics", "NIU", "issued", "completed", "posted", "stall cycles", "peak table")
		for _, name := range masters {
			st := s.MasterNIUs[name].Stats()
			nt.AddRow(name, st.Issued, st.Completed, st.Posted, st.StallCycles, st.PeakTable)
		}
		fmt.Println(nt.Render())
		fmt.Printf("fabric: %d packets injected, %d ejected\n", s.Net.Injected(), s.Net.Ejected())
	}
	if s.Bus != nil {
		bs := s.Bus.Stats()
		fmt.Printf("bus: busy=%d idle=%d lock=%d decode-errors=%d grants=%v\n",
			bs.BusyCycles, bs.IdleCycles, bs.LockCycles, bs.DecodeErrors, bs.Grants)
	}
	if rec != nil {
		writeFile(*traceFile, rec.WriteChromeTrace)
		fmt.Printf("trace: %d span events -> %s\n", rec.Len(), *traceFile)
	}
	if mon != nil {
		rep := mon.Report(label)
		writeFile(*heatFile, rep.WriteJSON)
		fmt.Printf("heatmap: %d links, %d flits -> %s\n", len(rep.Links), rep.TotalFlits, *heatFile)
	}
	// os.Exit skips defers, so flush the snapshot stream explicitly.
	if snap != nil {
		if err := snap.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics: %d snapshots -> %s\n", snap.Lines(), *metricsOut)
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			log.Fatal(err)
		}
	}
	os.Exit(0)
}

// defaultScenario is the soc scenario a flag-only run starts from. The
// generator workload reads only the roles' priorities, so each role just
// names its socket (at rate 1, the generators' own issue rate).
func defaultScenario() *scenario.Scenario {
	sc := &scenario.Scenario{Version: scenario.Version, Name: "nocsim",
		Workload: scenario.Workload{Kind: scenario.KindSoC}}
	for _, p := range []string{"axi", "ocp", "ahb", "pvci", "bvci", "avci", "prop"} {
		sc.Workload.Masters = append(sc.Workload.Masters, scenario.MasterRole{Protocol: p, Rate: 1})
	}
	return sc
}

// loadScenario resolves a built-in name or a file path and requires a
// soc-kind workload (packet scenarios have no IP to generate for).
func loadScenario(arg string) *scenario.Scenario {
	sc, err := scenario.Resolve(arg)
	if err != nil {
		log.Fatal(err)
	}
	if sc.Workload.Kind != scenario.KindSoC {
		log.Fatalf("scenario %q is a %q workload; nocsim builds %q scenarios (run packet workloads with noctraffic -scenario)",
			sc.Name, sc.Workload.Kind, scenario.KindSoC)
	}
	return sc
}

func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}
