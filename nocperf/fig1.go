package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"
	"time"

	"gonoc/internal/ip"
	"gonoc/internal/obs"
	"gonoc/internal/scenario"
	"gonoc/internal/sim"
	"gonoc/internal/soc"
	"gonoc/internal/stats"
)

// fig1-soc: the paper's Fig-1 system — all eight sockets behind their
// NIUs on a QoS wormhole mesh — running the self-checking
// write/read-back generators. Each input is a soc-kind scenario
// document with its own seed, lowered the way `nocsim -scenario` does.
var fig1 = &simWorkload[soc.Config]{
	name:         "fig1-soc",
	inputs:       8,
	doc:          fig1Doc,
	lowerName:    "SoCConfig",
	lower:        (*scenario.Scenario).SoCConfig,
	run:          fig1Run,
	setupNote:    "soc.BuildNoC calls",
	runNote:      "System.Run calls",
	opNote:       "BuildNoC+Run",
	txnNote:      "NIU transactions completed",
	p99Note:      "the p99 write-issue to read-back-verify latency",
	overheadNote: "soc.BuildNoC",
}

const (
	fig1Pairs     = 60 // write/read-back pairs per master
	fig1MaxCycles = 50_000_000
)

var fig1Sockets = []string{"axi", "ocp", "ahb", "pvci", "bvci", "avci", "prop", "wb"}

// fig1Doc is the scenario document for one fig1-soc input.
func fig1Doc(seed int64, scale float64) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"version": 1, "name": "fig1-soc", "seed": %d,
  "fabric": {"topology": "mesh", "mode": "wormhole", "qos": true},
  "workload": {"kind": "soc", "wishbone": true, "requests_per_master": %d, "masters": [`, seed, max(1, int(fig1Pairs*scale)))
	for i, p := range fig1Sockets {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `{"protocol": %q, "rate": 1}`, p)
	}
	b.WriteString("]}}\n")
	return b.Bytes()
}

// fig1Run builds and runs one input and checks its outputs.
func fig1Run(cfg soc.Config, opt options, t *tracer, parent, req uint64, probe obs.Probe) (simOut, error) {
	var out simOut
	cfg.Probe = probe
	sp := t.begin("soc.BuildNoC", parent, req)
	t0 := time.Now()
	s := soc.BuildNoC(cfg)
	out.setup = time.Since(t0)
	t.end(sp)
	if opt.faults.scribbleMemory {
		scribble(s)
	}
	sp = t.begin("soc.System.Run", parent, req)
	m0 := readMem()
	t0 = time.Now()
	cycles, runErr := s.Run(fig1MaxCycles)
	out.run = time.Since(t0)
	out.mem = readMem().sub(m0)
	t.end(sp)
	out.op = out.setup + out.run
	out.keep = s

	// Run already fails on incomplete generators and on mismatches; the
	// explicit check keeps the gate independent of that contract.
	if err := ip.CheckAll(s.Gens); err != nil && runErr == nil {
		runErr = err
	}
	h := sha256.New()
	fmt.Fprintf(h, "cycles=%d events=%d\n", cycles, s.K.Steps())
	names := make([]string, 0, len(s.Gens))
	for n := range s.Gens {
		names = append(names, n)
	}
	sort.Strings(names)
	c := &out.counts
	var lat stats.Latency
	for _, n := range names {
		g := s.Gens[n].Stats()
		fmt.Fprintf(h, "gen %s %d %d %d %d %+v\n", n, g.Issued, g.Completed, g.Mismatches, g.Errors, g.Latency.Summary())
		lat.Merge(g.Latency)
		c.mismatches += float64(g.Mismatches + g.Errors)
		ns := s.MasterNIUs[n].Stats()
		fmt.Fprintf(h, "niu %s %+v\n", n, ns)
		out.txns += int(ns.Completed)
		c.niuIssued += float64(ns.Issued)
		c.niuCompleted += float64(ns.Completed)
		c.niuStall += float64(ns.StallCycles)
		c.niuPeak = max(c.niuPeak, float64(ns.PeakTable))
	}
	out.p99 = float64(lat.Percentile(99))
	for _, rt := range s.Net.Routers() {
		st := rt.Stats()
		c.flits += float64(st.FlitsMoved)
		c.busyStalls += float64(st.BusyStalls)
		c.lockStalls += float64(st.LockStalls)
		c.outputs += float64(rt.Ports())
	}
	for _, b := range s.Stores {
		rd, wr := b.Accesses()
		c.memAccesses += float64(rd + wr)
	}
	c.packets = float64(s.Net.Ejected())
	c.cycles, c.events = float64(cycles), float64(s.K.Steps())
	fmt.Fprintf(h, "fabric %d %d %v\n", s.Net.Injected(), s.Net.Ejected(), c.flits)
	out.digest = fmt.Sprintf("%x", h.Sum(nil)[:8])
	if runErr == nil && s.Net.Injected() != s.Net.Ejected() {
		runErr = fmt.Errorf("fabric injected %d packets but ejected %d", s.Net.Injected(), s.Net.Ejected())
	}
	return out, runErr
}

// scribble registers a component that keeps overwriting the AXI
// generator's memory window, so its read-backs must mismatch.
func scribble(s *soc.System) {
	junk := bytes.Repeat([]byte{0xa5}, 0x10000)
	s.Clk.Register(sim.ClockedFunc{OnUpdate: func(cycle int64) {
		if cycle%8 == 0 {
			s.Stores["axi"].Write(0, junk, nil)
		}
	}})
}
