// Command noctraffic stresses the NoC with the standard synthetic
// workloads of the on-chip-network literature and reports latency and
// throughput, as text tables or JSON.
//
// Four modes:
//
//   - single run (default): one pattern at one injection rate on a raw
//     transport fabric, with a latency histogram and optional per-flow
//     digests (-flows);
//   - sweep (-sweep): walk injection rates and emit the
//     latency-vs-offered-load curve with its saturation summary;
//   - campaign (-campaign): fan a (topology × pattern × rate) product
//     across a worker pool — each point is an isolated simulation, so
//     the campaign scales with cores while per-point results stay
//     bit-identical to a serial run of the same seeds; with -heatmap,
//     every point records its own congestion heatmap;
//   - transaction level (-trans): drive the full mixed-protocol SoC
//     through its existing NIUs at a controlled per-master rate.
//
// Scenarios (internal/scenario, reference in docs/SCENARIOS.md): a
// scenario is the only description of a run. -scenario starts from a
// declarative composition — a built-in name (-list-scenarios) or a
// *.scenario.json file — and applies the explicitly set flags to its
// fields; a flag-only invocation starts from a default scenario and
// applies every flag, through the same flag→field mapping. A flag that
// does not apply to the resolved scenario (a packet-only flag on a soc
// workload, a campaign axis without a campaign) is an error when set
// explicitly. -save-scenario exports the resolved scenario as a file
// that reproduces the identical seeded result when re-run.
//
// One execution path: every invocation runs through scenario.Execute,
// and the observability and metrics flags become its
// scenario.Instruments — so `noctraffic -scenario FILE -wall=false
// -json` prints exactly the bytes nocserver stores for FILE.
//
// Observability (internal/obs, reference in docs/OBSERVABILITY.md):
// -trace writes a Chrome trace_event file of the run's
// transaction/packet lifecycle spans — open it directly in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing; -events writes the same
// span stream as JSONL; -heatmap writes the per-link congestion heatmap
// JSON (per-link flits, stall cycles, VC-occupancy high-water marks, and
// a time-bucketed utilization series); -heatmap-csv writes the same data
// as long-format CSV for spreadsheets and dataframes. -trace/-events
// need a single simulation (single run or -trans); -heatmap/-heatmap-csv
// also work in -campaign mode, where every point gets its own heatmap.
//
// Live metrics (internal/obs/metrics): -metrics-addr serves /metrics
// (Prometheus text exposition: per-router flit and stall counters,
// sim-events/sec, heap usage, campaign progress) and /progress (a JSON
// progress document with an ETA) over HTTP while the run executes;
// -metrics-out appends periodic self-profiling snapshots as JSONL at the
// -metrics-interval cadence. Both observe through atomic counters off
// the simulation's critical path: enabling them never changes seeded
// results, and long sweeps and campaigns additionally print per-point
// completion lines to stderr whether or not metrics are on.
//
// Profiling (reference in docs/PERFORMANCE.md): -cpuprofile writes a
// pprof CPU profile covering the whole run; -memprofile writes a pprof
// allocation profile at exit (after a final GC, so it shows live and
// cumulative allocations, not garbage). Inspect either with
// `go tool pprof`.
//
// Usage:
//
//	noctraffic [-pattern uniform|hotspot|transpose|bitcomp|neighbor|bursty]
//	           [-topology crossbar|mesh|torus|ring|tree] [-nodes N]
//	           [-mode wormhole|saf] [-qos] [-rate R] [-sweep]
//	           [-rates R1,R2,...] [-closed] [-window N] [-payload B]
//	           [-readfrac F] [-hotfrac F] [-burstlen N] [-urgentfrac F]
//	           [-warmup N] [-measure N] [-drain N] [-seed N] [-flows]
//	           [-json] [-wall=false] [-campaign] [-topologies T1,T2,...]
//	           [-patterns P1,P2,...] [-workers N] [-trans] [-hotspot-mem]
//	           [-wb] [-trace FILE] [-events FILE] [-heatmap FILE]
//	           [-heatmap-bucket N] [-heatmap-csv FILE]
//	           [-metrics-addr ADDR] [-metrics-out FILE]
//	           [-metrics-interval D] [-scenario NAME|FILE]
//	           [-save-scenario FILE] [-list-scenarios]
//	           [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"gonoc/internal/obs"
	"gonoc/internal/obs/metrics"
	"gonoc/internal/obs/prof"
	"gonoc/internal/scenario"
	"gonoc/internal/stats"
	"gonoc/internal/traffic"
)

var (
	pattern    = flag.String("pattern", "uniform", "traffic pattern: uniform, hotspot, transpose, bitcomp, neighbor, bursty")
	topo       = flag.String("topology", "crossbar", "fabric: crossbar, mesh, torus, ring, or tree")
	nodes      = flag.Int("nodes", 16, "endpoint count")
	mode       = flag.String("mode", "wormhole", "switching: wormhole or saf")
	qos        = flag.Bool("qos", false, "priority arbitration in switches")
	rate       = flag.Float64("rate", 0.05, "offered load, transactions/node/cycle (open loop)")
	sweep      = flag.Bool("sweep", false, "walk injection rates; emit the latency-vs-offered-load curve")
	ratesFlag  = flag.String("rates", "", "comma-separated sweep rates (default: built-in schedule)")
	closed     = flag.Bool("closed", false, "closed-loop injection (fixed outstanding window)")
	window     = flag.Int("window", 4, "closed loop: outstanding transactions per source")
	payload    = flag.Int("payload", 32, "data bytes per transaction (per master with -trans)")
	readFrac   = flag.Float64("readfrac", 0.5, "fraction of transactions that are reads")
	hotFrac    = flag.Float64("hotfrac", 0.5, "hotspot: fraction of traffic to the hot node")
	hotNode    = flag.Int("hotnode", 0, "hotspot: destination node index")
	burstLen   = flag.Int("burstlen", 8, "bursty: mean burst length")
	urgentFrac = flag.Float64("urgentfrac", 0, "fraction of transactions injected at urgent priority")
	warmup     = flag.Int64("warmup", 1000, "warmup cycles (inject, don't record)")
	measure    = flag.Int64("measure", 4000, "measurement cycles")
	drain      = flag.Int64("drain", 30000, "drain-cycle cap for finishing measured transactions")
	seed       = flag.Int64("seed", 1, "root random seed")
	flows      = flag.Bool("flows", false, "print per-flow latency digests (single run)")
	jsonOut    = flag.Bool("json", false, "emit JSON instead of text tables")
	wallOut    = flag.Bool("wall", true, "include the wall-clock self-profile in the report; -wall=false makes -json output fully deterministic (byte-comparable to a nocserver cached result)")
	campaign   = flag.Bool("campaign", false, "fan a (topology x pattern x rate) product across a worker pool; with -heatmap, one congestion heatmap per point")
	topoList   = flag.String("topologies", "crossbar,mesh,torus,ring,tree", "campaign: comma-separated topologies")
	patList    = flag.String("patterns", "uniform,hotspot", "campaign: comma-separated patterns")
	workers    = flag.Int("workers", 0, "campaign: worker-pool size (default: GOMAXPROCS)")
	trans      = flag.Bool("trans", false, "transaction-level load through the SoC's NIUs")
	hotspotMem = flag.Bool("hotspot-mem", false, "trans: all masters hammer one memory")
	wb         = flag.Bool("wb", false, "trans: include the WISHBONE master (and its memory) in the driven SoC")
	traceFile  = flag.String("trace", "", "write a Chrome trace_event file (Perfetto/chrome://tracing); single run or -trans")
	eventsFile = flag.String("events", "", "write the lifecycle span trace as JSONL; single run or -trans")
	heatFile   = flag.String("heatmap", "", "write the per-link congestion heatmap JSON; single run, -trans, or -campaign (one heatmap per point)")
	heatBucket = flag.Int64("heatmap-bucket", obs.DefaultHeatmapBucket, "heatmap time-bucket width in cycles")
	heatCSV    = flag.String("heatmap-csv", "", "write the congestion heatmap as long-format CSV (one row per link per time bucket); same modes as -heatmap")

	metricsAddr  = flag.String("metrics-addr", "", "serve live metrics over HTTP while the run executes: /metrics (Prometheus text) and /progress (JSON) on this address (e.g. :9091)")
	metricsOut   = flag.String("metrics-out", "", "append periodic self-profiling snapshots as JSONL to this file (headless alternative to -metrics-addr)")
	metricsEvery = flag.Duration("metrics-interval", 250*time.Millisecond, "snapshot cadence for -metrics-out")

	scenarioFlag  = flag.String("scenario", "", "run a declarative scenario: a built-in name (-list-scenarios) or a *.scenario.json file; explicit flags override scenario fields (docs/SCENARIOS.md)")
	saveScenario  = flag.String("save-scenario", "", "export this invocation as a scenario file before running it; re-running the file reproduces the identical seeded result")
	listScenarios = flag.Bool("list-scenarios", false, "list the built-in scenarios and exit")

	cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file (docs/PERFORMANCE.md)")
	memProfile = flag.String("memprofile", "", "write a pprof allocation profile at exit to this file")
)

// setFlags records which flags the user set explicitly — the set that
// overrides scenario fields.
var setFlags = map[string]bool{}

func main() {
	flag.Parse()
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	if *heatBucket <= 0 {
		*heatBucket = obs.DefaultHeatmapBucket
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	if *listScenarios {
		printScenarioList()
		return
	}
	mx := newMetricsRun()
	defer mx.close()

	sc := defaultScenario()
	if *scenarioFlag != "" {
		sc = mustLoadScenario(*scenarioFlag)
	}
	if err := applyOverrides(sc, *scenarioFlag == ""); err != nil {
		log.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		log.Fatal(err)
	}
	if *saveScenario != "" {
		exportScenario(sc)
	}
	run(sc, mx)
}

// defaultScenario is the scenario a flag-only run starts from before
// every flag is applied to it: a packet workload, or with -trans one
// role per historical SoC master (the flags fill in their rate, window,
// size and read mix).
func defaultScenario() *scenario.Scenario {
	sc := &scenario.Scenario{Version: scenario.Version, Name: scenarioName(),
		Workload: scenario.Workload{Kind: scenario.KindPacket}}
	if *trans {
		sc.Workload.Kind = scenario.KindSoC
		for _, p := range []string{"axi", "ocp", "ahb", "pvci", "bvci", "avci", "prop"} {
			sc.Workload.Masters = append(sc.Workload.Masters, scenario.MasterRole{Protocol: p})
		}
	}
	return sc
}

// run executes the scenario once through scenario.Execute, with the
// instruments the flags ask for, and prints its report.
func run(sc *scenario.Scenario, mx *metricsRun) {
	mode := sc.Mode()
	if mode == scenario.ModeSweep && (*traceFile != "" || *eventsFile != "" || *heatFile != "" || *heatCSV != "") {
		log.Fatal("-trace/-events/-heatmap apply to a single run, -trans, or -campaign (-heatmap only)")
	}
	if mode == scenario.ModeCampaign && (*traceFile != "" || *eventsFile != "") {
		log.Fatal("-trace/-events need a single simulation; campaigns support -heatmap only")
	}
	// An explicit -heatmap-bucket already overrode the scenario's bucket.
	bucket := sc.Measure.HeatmapBucket
	if bucket <= 0 {
		bucket = *heatBucket
	}
	sk := newSinks(*traceFile, *eventsFile, *heatFile, *heatCSV, bucket)
	in := &scenario.Instruments{Probe: sk.probe(), Wall: *wallOut}
	if sk.mon != nil {
		in.HeatmapBucket = bucket // campaigns: one heatmap per point
	}
	if mx != nil {
		in.Metrics, in.Prof, in.Progress = mx.reg, mx.prof, mx.prog
		in.Probe = obs.Multi(in.Probe, mx.coll)
	}
	var label string
	start := time.Now()
	in.OnPoint = func(pd traffic.PointDone) {
		label = pd.Label
		if mode == scenario.ModeSweep || mode == scenario.ModeCampaign {
			progressLine(string(mode), pd, start)
		}
	}

	rep, err := scenario.Execute(sc, in)
	if err != nil {
		log.Fatal(err)
	}
	if cr := rep.Campaign; cr != nil {
		if *heatFile != "" {
			writeFile(*heatFile, func(w io.Writer) error { return stats.WriteJSON(w, cr.Heatmaps) })
		}
		if *heatCSV != "" {
			writeFile(*heatCSV, func(w io.Writer) error { return obs.WriteHeatmapsCSV(w, cr.Heatmaps) })
		}
	} else {
		sk.write(label)
	}
	if *jsonOut {
		emitJSON(rep.Result())
		return
	}
	switch {
	case rep.Single != nil:
		printRun(*rep.Single, *flows)
	case rep.Sweep != nil:
		fmt.Println(rep.Sweep.Table().Render())
		fmt.Printf("saturation: last unsaturated rate %.3f, saturation throughput %.4f txn/node/cycle\n",
			rep.Sweep.SatRate, rep.Sweep.SatThroughput)
	case rep.Campaign != nil:
		cr := rep.Campaign
		fmt.Println(cr.Table().Render())
		for _, c := range cr.Curves {
			fmt.Println(c.Table().Render())
		}
		if cr.Wall != nil {
			fmt.Printf("wall clock: %.0f ms on %d workers for %d kernel events (%.2g events/sec)\n",
				cr.Wall.TotalMS, cr.Wall.Workers, cr.Wall.Events, cr.Wall.EventsPerSec)
		}
	default:
		fmt.Println(rep.Trans.Table().Render())
		fmt.Printf("throughput: %.1f completions/kcycle; incomplete: %d\n", rep.Trans.Throughput, rep.Trans.Incomplete)
	}
}

// progressLine prints one per-point completion line to stderr — the
// live pulse of a long sweep or campaign (stdout stays reserved for
// the report). ETA extrapolates from the average completed-point pace.
func progressLine(mode string, pd traffic.PointDone, start time.Time) {
	elapsed := time.Since(start)
	eta := ""
	if pd.Done > 0 && pd.Done < pd.Total {
		remain := time.Duration(float64(elapsed) / float64(pd.Done) * float64(pd.Total-pd.Done))
		eta = fmt.Sprintf(", ~%s left", remain.Round(time.Second))
	}
	fmt.Fprintf(os.Stderr, "%s point %d/%d done: %s (offered %g, %.0f ms) — %s elapsed%s\n",
		mode, pd.Done, pd.Total, pd.Label, pd.Offered, pd.WallMS, elapsed.Round(time.Millisecond), eta)
}

// ---- live metrics (-metrics-addr / -metrics-out) ----

// metricsRun owns the process-wide live-metrics stack: one registry,
// one simulator self-profile, one progress tracker, one per-router
// fabric collector, plus the HTTP server and/or JSONL snapshotter the
// flags asked for. All of it observes through atomics and never feeds
// back into the simulation, so enabling it cannot perturb seeded
// results (pinned by TestMetricsPassive in internal/traffic).
type metricsRun struct {
	reg    *metrics.Registry
	prof   *metrics.SimProfile
	prog   *metrics.Progress
	coll   *metrics.FabricCollector
	server *metrics.Server
	snap   *metrics.Snapshotter
	out    *os.File
}

// newMetricsRun returns nil when neither metrics flag was given.
func newMetricsRun() *metricsRun {
	if *metricsAddr == "" && *metricsOut == "" {
		return nil
	}
	m := &metricsRun{reg: metrics.NewRegistry()}
	m.prof = metrics.NewSimProfile(m.reg)
	m.prog = metrics.NewProgress(m.reg)
	m.coll = metrics.NewFabricCollector(m.reg)
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			log.Fatal(err)
		}
		m.out = f
		m.snap = metrics.NewSnapshotter(f, *metricsEvery, m.reg, m.prof, m.prog)
		m.prof.SetSnapshotter(m.snap)
	}
	if *metricsAddr != "" {
		m.server = metrics.NewServer(m.reg, m.prof, m.prog)
		addr, err := m.server.Start(*metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "serving live metrics on http://%s/metrics (progress: http://%s/progress)\n", addr, addr)
	}
	return m
}

// close flushes the final snapshot and stops the HTTP server.
func (m *metricsRun) close() {
	if m == nil {
		return
	}
	if m.snap != nil {
		if err := m.snap.Close(); err != nil {
			log.Printf("metrics snapshots: %v", err)
		}
	}
	if m.out != nil {
		if err := m.out.Close(); err != nil {
			log.Printf("metrics snapshots: %v", err)
		}
	}
	if m.server != nil {
		m.server.Close()
	}
}

// ---- scenario plumbing ----

// mustLoadScenario resolves a built-in name or a file path.
func mustLoadScenario(arg string) *scenario.Scenario {
	sc, err := scenario.Resolve(arg)
	if err != nil {
		log.Fatal(err)
	}
	return sc
}

// applyOverrides is the one flag→field mapping: it writes every flag
// onto the scenario when all is set (a flag-only run), and only the
// explicitly set flags otherwise (-scenario). A flag that does not
// apply to the scenario is an error when it was set explicitly and is
// skipped when it was not — flags pick fields, they never silently
// reinterpret a workload.
func applyOverrides(sc *scenario.Scenario, all bool) error {
	var err error
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf(format, args...)
		}
	}
	// applies reports ok, failing with "-name why" when the flag was
	// set explicitly but does not apply.
	applies := func(name string, ok bool, why string, args ...any) bool {
		if !ok && setFlags[name] {
			fail("-"+name+" "+why, args...)
		}
		return ok
	}
	packet := func(name string) bool {
		return applies(name, sc.Workload.Kind == scenario.KindPacket,
			"applies to packet scenarios; %q is a %q workload", sc.Name, sc.Workload.Kind)
	}
	socKind := func(name string) bool {
		return applies(name, sc.Workload.Kind == scenario.KindSoC,
			"applies to soc scenarios; %q is a %q workload", sc.Name, sc.Workload.Kind)
	}
	campaignAxis := func(name string) bool {
		return packet(name) && applies(name, sc.Measure.Campaign != nil,
			"needs a campaign scenario (add -campaign to convert)")
	}
	// perRole sets a knob on a packet workload, or on every master role
	// of a soc workload.
	perRole := func(packetField func(), role func(*scenario.MasterRole)) {
		if sc.Workload.Kind != scenario.KindSoC {
			packetField()
			return
		}
		for i := range sc.Workload.Masters {
			role(&sc.Workload.Masters[i])
		}
	}

	// Flags that reshape the scenario go first: they decide where the
	// flags below land (-rates into a sweep or a campaign, -rate onto
	// the WISHBONE role or not), and flag.Visit's lexical order must
	// not. A true bool flag was set explicitly (they default to false).
	if *sweep && *campaign {
		return fmt.Errorf("-sweep and -campaign are mutually exclusive")
	}
	if *campaign && packet("campaign") && sc.Measure.Campaign == nil {
		sc.Measure.SweepRates = nil
		sc.Measure.Campaign = &scenario.Campaign{}
	}
	if *sweep && packet("sweep") {
		sc.Measure.Campaign = nil
		if len(sc.Measure.SweepRates) == 0 {
			sc.Measure.SweepRates = traffic.DefaultRates()
		}
	}
	if (all || setFlags["wb"]) && socKind("wb") {
		setWishbone(&sc.Workload, *wb)
	}
	if err != nil {
		return err
	}

	visit := flag.Visit
	if all {
		visit = flag.VisitAll
	}
	visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			if *seed == 0 {
				// A scenario's seed 0 means "omitted" and selects the default.
				fail("-seed 0 is not a seed a scenario can carry (0 selects the default seed 1); use a positive seed")
			}
			sc.Seed = *seed
		case "topology":
			sc.Fabric.Topology = *topo
		case "nodes":
			if packet(f.Name) {
				sc.Fabric.Nodes = *nodes
			}
		case "mode":
			sc.Fabric.Mode = *mode
			if *mode == "wormhole" {
				sc.Fabric.Mode = "" // the schema default, stored omitted
			}
		case "qos":
			sc.Fabric.QoS = *qos
		case "warmup":
			w := *warmup
			sc.Measure.Warmup = &w
		case "measure":
			sc.Measure.Measure = *measure
		case "drain":
			sc.Measure.Drain = *drain
		case "heatmap-bucket":
			sc.Measure.HeatmapBucket = *heatBucket
			if *heatBucket == obs.DefaultHeatmapBucket {
				sc.Measure.HeatmapBucket = 0 // the schema default, stored omitted
			}
		case "rate":
			perRole(func() { sc.Workload.Rate = *rate }, func(m *scenario.MasterRole) { m.Rate = *rate })
		case "readfrac":
			rf := *readFrac
			perRole(func() { sc.Workload.ReadFrac = &rf }, func(m *scenario.MasterRole) { m.ReadFrac = &rf })
		case "window":
			perRole(func() { sc.Workload.Window = *window }, func(m *scenario.MasterRole) { m.Window = *window })
		case "payload":
			perRole(func() { sc.Workload.PayloadBytes = *payload }, func(m *scenario.MasterRole) { m.Bytes = *payload })
		case "pattern":
			if packet(f.Name) {
				sc.Workload.Pattern = *pattern
			}
		case "hotfrac":
			if packet(f.Name) {
				sc.Workload.HotFrac = *hotFrac
			}
		case "hotnode":
			if packet(f.Name) {
				sc.Workload.HotNode = *hotNode
			}
		case "burstlen":
			if packet(f.Name) {
				sc.Workload.BurstLen = *burstLen
			}
		case "urgentfrac":
			if packet(f.Name) {
				sc.Workload.UrgentFrac = *urgentFrac
			}
		case "closed":
			if packet(f.Name) {
				sc.Workload.ClosedLoop = *closed
			}
		case "hotspot-mem":
			if socKind(f.Name) {
				sc.Workload.Hotspot = *hotspotMem
			}
		case "trans":
			applies(f.Name, !*trans || sc.Workload.Kind == scenario.KindSoC,
				"needs a soc scenario; %q is a %q workload", sc.Name, sc.Workload.Kind)
		case "patterns":
			if campaignAxis(f.Name) {
				sc.Measure.Campaign.Patterns = strings.Split(*patList, ",")
			}
		case "topologies":
			if campaignAxis(f.Name) {
				sc.Measure.Campaign.Topologies = strings.Split(*topoList, ",")
			}
		case "workers":
			if campaignAxis(f.Name) {
				sc.Measure.Campaign.Workers = *workers
			}
		case "rates":
			m := &sc.Measure
			if packet(f.Name) && applies(f.Name, m.Campaign != nil || len(m.SweepRates) > 0,
				"needs a sweep or campaign scenario (add -sweep or -campaign to convert)") {
				switch rates := parseRates(*ratesFlag); {
				case rates == nil: // an empty -rates keeps the schedule
				case m.Campaign != nil:
					m.Campaign.Rates = rates
				default:
					m.SweepRates = rates
				}
			}
		}
	})
	return err
}

// setWishbone adds or drops the WISHBONE socket. An added socket is
// driven like the first declared master (minus its priority and
// target), so the per-master flags reach it too.
func setWishbone(w *scenario.Workload, on bool) {
	w.Wishbone = on
	i := slices.IndexFunc(w.Masters, func(m scenario.MasterRole) bool { return m.Protocol == "wb" })
	switch {
	case on && i < 0:
		role := w.Masters[0]
		role.Protocol, role.Priority, role.Target = "wb", "", nil
		w.Masters = append(w.Masters, role)
	case !on && i >= 0:
		w.Masters = slices.Delete(w.Masters, i, i+1)
	}
}

// scenarioName derives the exported scenario's name from the output
// file ("-save-scenario runs/hot.scenario.json" names it "hot").
func scenarioName() string {
	name := filepath.Base(*saveScenario)
	name = strings.TrimSuffix(name, ".json")
	name = strings.TrimSuffix(name, ".scenario")
	if name == "" || name == "." {
		return "noctraffic-export"
	}
	return name
}

func exportScenario(sc *scenario.Scenario) {
	if err := sc.SaveFile(*saveScenario); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "saved scenario %q -> %s (re-run: noctraffic -scenario %s)\n",
		sc.Name, *saveScenario, *saveScenario)
}

func printScenarioList() {
	t := stats.NewTable("built-in scenarios (-scenario NAME; docs/SCENARIOS.md)",
		"name", "kind", "mode", "description")
	for _, name := range scenario.Names() {
		sc, _ := scenario.Get(name)
		t.AddRow(name, sc.Workload.Kind, string(sc.Mode()), sc.Description)
	}
	fmt.Println(t.Render())
}

// sinks bundles the optional observability outputs of one simulation:
// a span recorder feeding the Chrome-trace and JSONL files, and a link
// monitor feeding the heatmap JSON/CSV files.
type sinks struct {
	rec     *obs.SpanRecorder
	mon     *obs.LinkMonitor
	trace   string
	events  string
	heat    string
	heatCSV string
}

func newSinks(trace, events, heat, heatCSV string, bucket int64) *sinks {
	s := &sinks{trace: trace, events: events, heat: heat, heatCSV: heatCSV}
	if trace != "" || events != "" {
		s.rec = &obs.SpanRecorder{}
	}
	if heat != "" || heatCSV != "" {
		s.mon = obs.NewLinkMonitor(bucket)
	}
	return s
}

// probe returns the combined probe, nil when no sink was requested.
func (s *sinks) probe() obs.Probe {
	var ps []obs.Probe
	if s.rec != nil {
		ps = append(ps, s.rec)
	}
	if s.mon != nil {
		ps = append(ps, s.mon)
	}
	return obs.Multi(ps...)
}

// write flushes the requested files; label names the heatmap.
func (s *sinks) write(label string) {
	if s.rec != nil && s.trace != "" {
		writeFile(s.trace, s.rec.WriteChromeTrace)
	}
	if s.rec != nil && s.events != "" {
		writeFile(s.events, s.rec.WriteJSONL)
	}
	if s.mon != nil {
		rep := s.mon.Report(label)
		if s.heat != "" {
			writeFile(s.heat, rep.WriteJSON)
		}
		if s.heatCSV != "" {
			writeFile(s.heatCSV, rep.WriteCSV)
		}
	}
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

func parseRates(s string) []float64 {
	if s == "" {
		return nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			log.Fatalf("bad rate %q", f)
		}
		out = append(out, v)
	}
	return out
}

func emitJSON(v any) {
	if err := stats.WriteJSON(os.Stdout, v); err != nil {
		log.Fatal(err)
	}
}

func printRun(res traffic.Result, showFlows bool) {
	loop := fmt.Sprintf("open loop @ %.3f txn/node/cyc", res.Offered)
	if res.ClosedLoop {
		loop = "closed loop"
	}
	fmt.Printf("%s on %s, %d nodes, %s: %d cycles simulated\n\n",
		res.Pattern, res.Topology, res.Nodes, loop, res.Cycles)

	t := stats.NewTable("run summary", "metric", "value")
	t.AddRow("generated rate (txn/node/cyc)", res.GenRate)
	t.AddRow("accepted rate", res.InjRate)
	t.AddRow("throughput", res.Throughput)
	t.AddRow("mean latency (cyc)", res.Latency.Mean)
	t.AddRow("p50 / p95 / p99", fmt.Sprintf("%d / %d / %d", res.Latency.P50, res.Latency.P95, res.Latency.P99))
	t.AddRow("max latency", res.Latency.Max)
	t.AddRow("fabric latency mean (per pkt)", res.NetLatency.Mean)
	t.AddRow("avg hops", res.AvgHops)
	t.AddRow("measured txns", res.Latency.Count)
	t.AddRow("incomplete at drain cap", res.Incomplete)
	t.AddRow("saturated", stats.Mark(res.Saturated))
	fmt.Println(t.Render())

	h := stats.NewTable("latency histogram (cycles)", "range", "count")
	for _, b := range res.Hist {
		h.AddRow(fmt.Sprintf("[%d,%d]", b.Lo, b.Hi), b.Count)
	}
	fmt.Println(h.Render())

	if showFlows {
		fmt.Println(traffic.FlowTable(res).Render())
	}
}
