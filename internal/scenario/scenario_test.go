package scenario

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gonoc/internal/stats"
	"gonoc/internal/traffic"
	"gonoc/internal/transport"
)

// minimal returns a small valid packet scenario JSON with room for
// per-test corruption.
func minimalPacket() string {
	return `{
  "version": 1,
  "name": "t",
  "fabric": { "topology": "crossbar", "nodes": 8 },
  "workload": { "kind": "packet", "rate": 0.05 },
  "measure": { "warmup": 100, "measure": 400, "drain": 4000 }
}`
}

func minimalSoC(masters string) string {
	return fmt.Sprintf(`{
  "version": 1,
  "name": "t",
  "fabric": { "topology": "crossbar" },
  "workload": { "kind": "soc", "masters": [%s] },
  "measure": { "warmup": 100, "measure": 400, "drain": 4000 }
}`, masters)
}

// TestLoadErrorsNameTheField is the malformed-file table: every rejected
// document must produce an error that names the offending field (or its
// line:column for JSON-level damage).
func TestLoadErrorsNameTheField(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // substring the error must contain
	}{
		{"unknown protocol",
			minimalSoC(`{"protocol": "pci", "rate": 0.1}`),
			`workload.masters[0].protocol: unknown protocol "pci"`},
		{"zero-rate master",
			minimalSoC(`{"protocol": "axi", "rate": 0}`),
			"workload.masters[0].rate"},
		{"duplicate master",
			minimalSoC(`{"protocol": "axi", "rate": 0.1}, {"protocol": "axi", "rate": 0.2}`),
			`workload.masters[1].protocol: duplicate role for "axi"`},
		{"overlapping address ranges",
			minimalSoC(`{"protocol": "axi", "rate": 0.1, "target": {"base": "0x1004_0000", "size": "0x10000"}},
			            {"protocol": "ocp", "rate": 0.1, "target": {"base": "0x1004_8000", "size": "0x10000"}}`),
			"workload.masters[1].target"},
		{"target outside every memory window",
			minimalSoC(`{"protocol": "axi", "rate": 0.1, "target": {"base": "0x9000_0000", "size": "0x1000"}}`),
			"not inside any mapped memory window"},
		{"nodes on soc workload",
			strings.Replace(minimalSoC(`{"protocol": "axi", "rate": 0.1}`), `"crossbar" }`, `"crossbar", "nodes": 64 }`, 1),
			"fabric.nodes: packet-only field"},
		{"mesh shape on soc workload",
			strings.Replace(minimalSoC(`{"protocol": "axi", "rate": 0.1}`), `"crossbar" }`, `"mesh", "mesh_w": 4, "mesh_h": 4 }`, 1),
			"fabric.mesh_w: packet-only field"},
		{"tree fanout on soc workload",
			strings.Replace(minimalSoC(`{"protocol": "axi", "rate": 0.1}`), `"crossbar" }`, `"tree", "tree_fanout": 2 }`, 1),
			"fabric.tree_fanout: packet-only field"},
		{"wb role without wishbone",
			minimalSoC(`{"protocol": "wb", "rate": 0.1}`),
			"workload.wishbone"},
		{"unknown topology",
			strings.Replace(minimalPacket(), `"crossbar"`, `"hexagon"`, 1),
			`fabric.topology: unknown topology "hexagon"`},
		{"unknown pattern",
			strings.Replace(minimalPacket(), `"kind": "packet"`, `"kind": "packet", "pattern": "zipf"`, 1),
			`workload.pattern: unknown pattern "zipf"`},
		{"unknown kind",
			strings.Replace(minimalPacket(), `"kind": "packet"`, `"kind": "quantum"`, 1),
			"workload.kind"},
		{"bad version",
			strings.Replace(minimalPacket(), `"version": 1`, `"version": 99`, 1),
			"version: unsupported scenario version 99"},
		{"missing name",
			strings.Replace(minimalPacket(), `"name": "t"`, `"name": ""`, 1),
			"name: required"},
		{"hot node out of range",
			strings.Replace(minimalPacket(), `"kind": "packet"`, `"kind": "packet", "pattern": "hotspot", "hot_node": 99`, 1),
			"workload.hot_node: 99 outside [0,8)"},
		{"negative warmup",
			strings.Replace(minimalPacket(), `"warmup": 100`, `"warmup": -5`, 1),
			"measure.warmup"},
		{"sweep on soc workload",
			strings.Replace(minimalSoC(`{"protocol": "axi", "rate": 0.1}`),
				`"measure": {`, `"measure": { "sweep_rates": [0.01],`, 1),
			"measure.sweep_rates"},
		{"sweep and campaign together",
			strings.Replace(minimalPacket(),
				`"measure": {`, `"measure": { "sweep_rates": [0.01], "campaign": {},`, 1),
			"measure.campaign"},
		{"unknown field with position",
			strings.Replace(minimalPacket(), `"nodes": 8`, `"nodez": 8`, 1),
			`4:39: fabric.nodez: unknown field "nodez"`},
		{"unknown field inside a list",
			minimalSoC(`{"protocol": "axi", "rate": 0.1, "turbo": true}`),
			`workload.masters[0].turbo: unknown field "turbo"`},
		{"type error with position",
			strings.Replace(minimalPacket(), `"nodes": 8`, `"nodes": "eight"`, 1),
			"4:"},
		{"syntax error with position",
			strings.TrimSuffix(minimalPacket(), "}"),
			"7:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(tc.doc))
			if err == nil {
				t.Fatalf("Load accepted malformed document:\n%s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the offence (want substring %q)", err, tc.want)
			}
		})
	}
}

// TestFidelityLoadErrors pins what happens to documents written for the
// retired approximate-timing modes: fabric.fidelity and fabric.loose_*
// are no longer fields, so strict decoding rejects each document with
// the position and JSON path of the first retired key, whatever value
// it carries. No such document loads with the setting silently dropped.
func TestFidelityLoadErrors(t *testing.T) {
	retired := func(fabricExtra string) string {
		return strings.Replace(minimalPacket(),
			`"nodes": 8`, `"nodes": 8, `+fabricExtra, 1)
	}
	const fidelity = `4:51: fabric.fidelity: unknown field "fidelity"`
	cases := []struct {
		name string
		doc  string
		want string // substring the error must contain
	}{
		{"unknown fidelity value",
			retired(`"fidelity": "fast"`), fidelity},
		{"misspelled fidelity field with position",
			retired(`"fidelty": "hybrid"`),
			`4:51: fabric.fidelty: unknown field "fidelty"`},
		{"threshold above one",
			retired(`"fidelity": "hybrid", "loose_threshold": 1.5`), fidelity},
		{"negative threshold",
			retired(`"loose_threshold": -0.2`),
			`4:51: fabric.loose_threshold: unknown field "loose_threshold"`},
		{"hysteresis above one",
			retired(`"loose_hysteresis": 2`),
			`4:51: fabric.loose_hysteresis: unknown field "loose_hysteresis"`},
		{"negative window",
			retired(`"loose_window": -64`),
			`4:51: fabric.loose_window: unknown field "loose_window"`},
		{"threshold of wrong type with position",
			retired(`"fidelity": "hybrid", "loose_threshold": "high"`), fidelity},
		{"loose tuning without the knob",
			retired(`"loose_threshold": 0.5`),
			`4:51: fabric.loose_threshold: unknown field "loose_threshold"`},
		{"loose tuning on explicit cycle",
			retired(`"fidelity": "cycle", "loose_window": 128`), fidelity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(tc.doc))
			if err == nil {
				t.Fatalf("Load accepted a document with a retired field:\n%s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the retired field (want substring %q)", err, tc.want)
			}
		})
	}
}

// TestRoundTrip pins Load∘Save as the identity on every built-in.
func TestRoundTrip(t *testing.T) {
	for _, name := range Names() {
		s, _ := Get(name)
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatalf("%s: Save: %v", name, err)
		}
		back, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: Load(Save(s)): %v", name, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("%s: round trip changed the scenario:\n%s", name, buf.String())
		}
		var buf2 bytes.Buffer
		if err := back.Save(&buf2); err != nil {
			t.Fatalf("%s: second Save: %v", name, err)
		}
		if buf.String() != buf2.String() {
			t.Fatalf("%s: Save is not byte-stable", name)
		}
	}
}

// TestBuiltins checks the registry invariants: every name validates,
// and Get returns an isolated copy.
func TestBuiltins(t *testing.T) {
	if len(Names()) < 6 {
		t.Fatalf("want at least 6 built-ins, got %v", Names())
	}
	for _, name := range Names() {
		s, ok := Get(name)
		if !ok {
			t.Fatalf("Get(%q) missing", name)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("built-in %q invalid: %v", name, err)
		}
		s.Name = "mutated"
		s.Fabric.Topology = "tree"
		if len(s.Workload.Masters) > 0 {
			s.Workload.Masters[0].Rate = 0.999
		}
		again, _ := Get(name)
		if again.Name != name || again.Fabric.Topology == "tree" {
			t.Fatalf("Get(%q) aliases registry state", name)
		}
		if len(again.Workload.Masters) > 0 && again.Workload.Masters[0].Rate == 0.999 {
			t.Fatalf("Get(%q) aliases master roles", name)
		}
	}
}

// TestDeterminism: same scenario + same seed ⇒ bit-identical
// traffic.Result, for both workload kinds.
func TestDeterminism(t *testing.T) {
	packet, err := Load(strings.NewReader(minimalPacket()))
	if err != nil {
		t.Fatal(err)
	}
	socSc, err := Load(strings.NewReader(minimalSoC(
		`{"protocol": "axi", "rate": 0.2, "window": 2},
		 {"protocol": "bvci", "rate": 0.15, "priority": "high",
		  "target": {"base": "0x4004_0000", "size": "0x4000"}}`)))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Scenario{packet, socSc} {
		a, err := Execute(s, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.Mode(), err)
		}
		b, err := Execute(s, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.Mode(), err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s scenario is not deterministic across runs", s.Mode())
		}
		if a.Single != nil && a.Single.Latency.Count == 0 {
			t.Fatalf("packet scenario measured nothing")
		}
		if a.Trans != nil && a.Trans.Throughput == 0 {
			t.Fatalf("soc scenario measured nothing")
		}
	}
}

// exportCase is one noctraffic invocation and its library form: doc is
// the scenario file `noctraffic <flags> -save-scenario
// testdata/export/<name>.scenario.json` wrote before the CLI ran flag
// runs through its scenario overrides, and cfg (or trans) is the config
// those flags described, sentinels included ("-readfrac 0" is ReadFrac
// -1, "-warmup 0" is Warmup -1). The mode fields pick the run.
type exportCase struct {
	name     string
	flags    string                  // the invocation, for the reader
	cfg      traffic.Config          // packet runs
	sweep    bool                    // -sweep; rates nil means -rates omitted
	rates    []float64               // -rates
	campaign *traffic.CampaignConfig // -campaign (Base is cfg)
	trans    *traffic.TransConfig    // -trans
}

// oracle runs the case through the traffic entry point its mode names,
// directly on the flag-built config.
func (c exportCase) oracle() any {
	switch {
	case c.trans != nil:
		return traffic.RunTrans(*c.trans)
	case c.campaign != nil:
		cc := *c.campaign
		cc.Base = c.cfg
		return traffic.Campaign(cc)
	case c.sweep && c.rates == nil:
		return traffic.Sweep(c.cfg, traffic.DefaultRates())
	case c.sweep:
		return traffic.Sweep(c.cfg, c.rates)
	}
	return traffic.Run(c.cfg)
}

// flagConfig is a packet config as noctraffic builds it from its flag
// defaults, shrunk to test size: "-seed 7 -nodes 8 -topology ring
// -warmup 150 -measure 500 -drain 6000".
func flagConfig() traffic.Config {
	return traffic.Config{
		Seed: 7, Nodes: 8, Topology: transport.Ring,
		Pattern: traffic.UniformRandom, Rate: 0.05, PayloadBytes: 32,
		ReadFrac: 0.5, HotFrac: 0.5, BurstLen: 8, Window: 4,
		Warmup: 150, Measure: 500, Drain: 6000,
	}
}

// transRoles is the role list a -trans invocation drives: one uniform
// role per historical master, plus wb with -wb.
func transRoles(wb bool, shape traffic.TransRole) []traffic.TransRole {
	names := []string{"axi", "ocp", "ahb", "pvci", "bvci", "avci", "prop"}
	if wb {
		names = append(names, "wb")
	}
	roles := make([]traffic.TransRole, len(names))
	for i, n := range names {
		roles[i] = shape
		roles[i].Master = n
	}
	return roles
}

// TestExportReproducesRun pins round-trip guarantee #1 on the exported
// documents: each file noctraffic's -save-scenario wrote for a flag
// invocation must lower to the config those flags describe, and
// executing it must print the same stats.WriteJSON bytes as the direct
// traffic call on that config, the oracle.
func TestExportReproducesRun(t *testing.T) {
	with := func(f func(*traffic.Config)) traffic.Config {
		c := flagConfig()
		f(&c)
		return c
	}
	cases := []exportCase{
		{name: "single-sentinels",
			flags: "-pattern bursty -rate 0.08 -payload 16 -burstlen 4 -urgentfrac 0.25 -readfrac 0 -warmup 0 -qos",
			cfg: with(func(c *traffic.Config) {
				c.Pattern, c.Rate, c.PayloadBytes, c.BurstLen, c.UrgentFrac = traffic.Bursty, 0.08, 16, 4, 0.25
				c.ReadFrac, c.Warmup = -1, -1
				c.Net.QoS = true
			})},
		{name: "single-closed-qos-saf", flags: "-topology mesh -closed -window 2 -qos -mode saf",
			cfg: with(func(c *traffic.Config) {
				c.Topology, c.ClosedLoop, c.Window = transport.Mesh, true, 2
				c.Net.QoS, c.Net.Mode = true, transport.StoreAndForward
			})},
		{name: "single-hotspot", flags: "-topology torus -pattern hotspot -hotnode 3 -hotfrac 0.7",
			cfg: with(func(c *traffic.Config) {
				c.Topology, c.Pattern, c.HotNode, c.HotFrac = transport.Torus, traffic.Hotspot, 3, 0.7
			})},
		{name: "sweep-default-rates", flags: "-sweep -measure 300", sweep: true,
			cfg: with(func(c *traffic.Config) { c.Measure = 300 })},
		{name: "sweep-rates", flags: "-sweep -rates 0.02,0.1 -topology tree -closed", sweep: true,
			rates: []float64{0.02, 0.1},
			cfg: with(func(c *traffic.Config) {
				c.Topology, c.ClosedLoop = transport.Tree, true // sweeps run open loop
			})},
		{name: "campaign-default-rates", flags: "-campaign -measure 300 -topologies ring,crossbar -patterns uniform -workers 2",
			cfg: with(func(c *traffic.Config) { c.Measure = 300 }),
			campaign: &traffic.CampaignConfig{Topologies: []transport.Topology{transport.Ring, transport.Crossbar},
				Patterns: []traffic.Pattern{traffic.UniformRandom}, Workers: 2}},
		{name: "campaign-rates", flags: "-campaign -readfrac 0 -topologies ring -patterns uniform,hotspot -rates 0.02,0.08",
			cfg: with(func(c *traffic.Config) { c.ReadFrac = -1 }),
			campaign: &traffic.CampaignConfig{Topologies: []transport.Topology{transport.Ring},
				Patterns: []traffic.Pattern{traffic.UniformRandom, traffic.Hotspot},
				Rates:    []float64{0.02, 0.08}}},
		{name: "trans-wb-hotspot-mem",
			flags: "-trans -seed 3 -rate 0.15 -window 2 -payload 16 -readfrac 0.5 -hotspot-mem -wb -warmup 100 -measure 600 -drain 8000",
			trans: &traffic.TransConfig{Seed: 3, Hotspot: true, Wishbone: true,
				Roles:  transRoles(true, traffic.TransRole{Rate: 0.15, Window: 2, Bytes: 16, ReadFrac: 0.5}),
				Warmup: 100, Measure: 600, Drain: 8000}},
		{name: "trans-sentinels-mesh",
			flags: "-trans -seed 5 -topology mesh -rate 0.1 -window 4 -payload 32 -readfrac 0 -warmup 0 -measure 500 -drain 8000",
			trans: &traffic.TransConfig{Seed: 5, Topology: transport.Mesh,
				Roles:  transRoles(false, traffic.TransRole{Rate: 0.1, Window: 4, Bytes: 32, ReadFrac: -1}),
				Warmup: -1, Measure: 500, Drain: 8000}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := LoadFile(filepath.Join("testdata", "export", c.name+".scenario.json"))
			if err != nil {
				t.Fatal(err)
			}
			if c.trans == nil {
				lowered, err := s.PacketConfig()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(c.cfg, lowered) {
					t.Fatalf("the document of %q lowers to another config:\n  flags: %+v\n  doc:   %+v", c.flags, c.cfg, lowered)
				}
			}
			var want, got bytes.Buffer
			if err := stats.WriteJSON(&want, c.oracle()); err != nil {
				t.Fatal(err)
			}
			rep, err := Execute(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := stats.WriteJSON(&got, rep.Result()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatalf("%s: Execute bytes differ from the direct traffic call", rep.Mode)
			}
		})
	}
}

// ringScenario is flagConfig as a scenario: a small packet workload on
// an 8-node ring.
func ringScenario(name string) *Scenario {
	warmup := int64(150)
	return &Scenario{Version: Version, Name: name, Seed: 7,
		Fabric:   Fabric{Topology: "ring", Nodes: 8},
		Workload: Workload{Kind: KindPacket, Rate: 0.05},
		Measure:  Measure{Warmup: &warmup, Measure: 500, Drain: 6000}}
}

// TestCampaignBytesIgnoreWorkers: the fingerprint ignores the campaign
// worker count, so the result bytes must too — otherwise a cache hit
// could return bytes from another pool size, and CLI and server output
// would differ for the same document.
func TestCampaignBytesIgnoreWorkers(t *testing.T) {
	var out [2]bytes.Buffer
	var fps [2]string
	for i, workers := range []int{1, 3} {
		s := ringScenario("workers")
		s.Measure.Campaign = &Campaign{Topologies: []string{"ring", "mesh"},
			Rates: []float64{0.02, 0.06}, Workers: workers}
		fp, err := s.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = fp
		rep, err := Execute(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := stats.WriteJSON(&out[i], rep.Result()); err != nil {
			t.Fatal(err)
		}
	}
	if fps[0] != fps[1] {
		t.Fatalf("fingerprints differ across worker counts: %s vs %s", fps[0], fps[1])
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatal("campaign bytes differ between workers 1 and 3")
	}
}

// TestCheckedInScenarioFiles loads every scenario file shipped in the
// repository (examples/ and testdata/), the same set the CI docs job
// validates with cmd/nocscenario.
func TestCheckedInScenarioFiles(t *testing.T) {
	var files []string
	for _, glob := range []string{"../../testdata/*.scenario.json", "../../examples/*/*.scenario.json"} {
		m, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < 3 {
		t.Fatalf("expected checked-in scenario files, found %v", files)
	}
	for _, f := range files {
		if _, err := LoadFile(f); err != nil {
			t.Errorf("%v", err)
		}
	}
}

// TestCampaignScenarioLowers pins the campaign lowering path (the axes
// reach traffic.CampaignConfig, the base carries the workload).
func TestCampaignScenarioLowers(t *testing.T) {
	doc := strings.Replace(minimalPacket(), `"measure": {`,
		`"measure": { "campaign": {"topologies": ["crossbar", "ring"], "patterns": ["uniform"], "rates": [0.02, 0.05], "workers": 2},`, 1)
	s, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if s.Mode() != ModeCampaign {
		t.Fatalf("mode = %s, want campaign", s.Mode())
	}
	cc, err := s.CampaignConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(cc.Topologies) != 2 || len(cc.Patterns) != 1 || len(cc.Rates) != 2 || cc.Workers != 2 {
		t.Fatalf("campaign axes lost in lowering: %+v", cc)
	}
	res := traffic.Campaign(cc)
	if len(res.Points) != 4 {
		t.Fatalf("campaign ran %d points, want 4", len(res.Points))
	}
}
