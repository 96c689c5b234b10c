package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"gonoc/internal/obs/metrics"
	"gonoc/internal/scenario"
)

// layerCounts are the per-layer statistics a run reads back from the
// layers' public stats, summed over its ops.
type layerCounts struct {
	cycles, events float64 // sim
	flits, packets float64 // transport
	stalls         float64 // transport: held outputs that moved no flit (probe events)
	outputs        float64 // router output ports, for link utilisation
	busyStalls     float64 // transport RouterStats (reachable on fig1-soc only)
	lockStalls     float64
	backpressure   float64 // traffic: source-cycles refused by a full endpoint
	niuIssued      float64 // niu
	niuCompleted   float64
	niuStall       float64 // niu MasterStats (reachable on fig1-soc only)
	niuPeak        float64
	mismatches     float64 // ip generator read-back mismatches and errors
	memAccesses    float64 // mem backing reads + writes (fig1-soc only)

	// hostNS is the untraced host time of the simulations counted, the
	// base of the ns-per-unit ratios; overheadMS are the per-call host
	// times a caller pays beyond the simulation loop.
	hostNS     float64
	overheadMS samples
}

func (c *layerCounts) addCounts(o *layerCounts) {
	c.cycles += o.cycles
	c.events += o.events
	c.flits += o.flits
	c.packets += o.packets
	c.stalls += o.stalls
	c.busyStalls += o.busyStalls
	c.lockStalls += o.lockStalls
	c.backpressure += o.backpressure
	c.niuIssued += o.niuIssued
	c.niuCompleted += o.niuCompleted
	c.niuStall += o.niuStall
	c.niuPeak = max(c.niuPeak, o.niuPeak)
	c.mismatches += o.mismatches
	c.memAccesses += o.memAccesses
	// Every input of a workload has the same fabric, so the port count
	// is per run, not a sum: link utilisation divides by it once per
	// cycle simulated.
	c.outputs = max(c.outputs, o.outputs)
}

// set records the per-layer metrics: the counts from c, the host-time
// ratios and call overheads from base, the untraced runs. overheadNote
// says what call.overhead_ms is on the workload.
func (c *layerCounts) set(r *report, base *layerCounts, overheadNote string) {
	r.set("sim.events", c.events, "count", "host", "kernel events executed, one pass over the inputs")
	r.set("sim.ns_per_cycle", ratio(base.hostNS, base.cycles), "ns", "host", fmt.Sprintf("untraced host time / %.0f simulated cycles", base.cycles))
	r.set("sim.ns_per_event", ratio(base.hostNS, base.events), "ns", "host", fmt.Sprintf("untraced host time / %.0f kernel events", base.events))
	r.set("transport.flits", c.flits, "count", "simulated", "flits forwarded by all switches")
	r.set("transport.packets", c.packets, "count", "simulated", "packets ejected")
	r.set("transport.link_util", ratio(c.flits, c.outputs*c.cycles), "ratio", "simulated",
		fmt.Sprintf("flits / (%.0f router outputs x %.0f cycles)", c.outputs, c.cycles))
	r.set("transport.ns_per_flit", ratio(base.hostNS, base.flits), "ns", "host", fmt.Sprintf("untraced host time / %.0f flits", base.flits))
	r.set("transport.stall_events", c.stalls, "count", "simulated", "held switch outputs that moved no flit (fabric collector)")
	r.set("transport.busy_stalls", c.busyStalls, "count", "simulated", "RouterStats.BusyStalls; 0 where the fabric is not reachable from outside")
	r.set("transport.lock_stalls", c.lockStalls, "count", "simulated", "RouterStats.LockStalls; 0 where the fabric is not reachable from outside")
	r.set("traffic.inject_backpressure", c.backpressure, "count", "simulated", "source-cycles a full endpoint refused a packet")
	r.set("niu.issued", c.niuIssued, "count", "simulated", "transactions issued by master NIUs")
	r.set("niu.completed", c.niuCompleted, "count", "simulated", "transactions retired by master NIUs")
	r.set("niu.stall_cycles", c.niuStall, "count", "simulated", "MasterStats.StallCycles; 0 where the NIUs are not reachable from outside")
	r.set("niu.peak_table", c.niuPeak, "count", "simulated", "largest MasterStats.PeakTable")
	r.set("ip.mismatches", c.mismatches, "count", "simulated", "generator read-back mismatches + errors")
	r.set("mem.accesses", c.memAccesses, "count", "simulated", "memory backing reads + writes")
	r.set("call.overhead_ms", base.overheadMS.median(), "ms", "host",
		fmt.Sprintf("median of %d, untraced: %s", len(base.overheadMS), overheadNote))
}

// finishLayers records the metrics every traced run shares — the
// scenario layer's front door on the workload's documents, lowered by
// lower (Scenario.<lowerName>), and the isolated layer drivers — then
// writes the spans.
func (r *report) finishLayers(t *tracer, opt options, docs [][]byte, lower func(*scenario.Scenario) error, lowerName string) error {
	if err := measureScenario(r, docs, lower, lowerName); err != nil {
		return err
	}
	if err := runDrivers(r); err != nil {
		return err
	}
	return r.finishTrace(t, opt)
}

// collectorTotals sums a fabric collector's counters per family.
func collectorTotals(reg *metrics.Registry) map[string]float64 {
	tot := map[string]float64{}
	reg.Each(func(key string, v float64) {
		name, _, _ := strings.Cut(key, "{")
		tot[name] += v
	})
	return tot
}

// scenarioReps repeats each scenario call so the microsecond timings
// are medians over enough calls to be steady.
const scenarioReps = 25

// measureScenario times the scenario layer's front door on the
// workload's own documents: decode (Load, which validates), Fingerprint
// and lowering.
func measureScenario(r *report, docs [][]byte, lower func(*scenario.Scenario) error, lowerName string) error {
	var dec, fp, low samples
	for _, doc := range docs {
		for i := 0; i < scenarioReps; i++ {
			t0 := time.Now()
			sc, err := scenario.Load(bytes.NewReader(doc))
			t1 := time.Now()
			if err != nil {
				return err
			}
			if _, err := sc.Fingerprint(); err != nil {
				return err
			}
			t2 := time.Now()
			if err := lower(sc); err != nil {
				return err
			}
			t3 := time.Now()
			dec = append(dec, us(t1.Sub(t0)))
			fp = append(fp, us(t2.Sub(t1)))
			low = append(low, us(t3.Sub(t2)))
		}
	}
	note := fmt.Sprintf("median of %d calls over %d documents", len(dec), len(docs))
	r.set("scenario.decode_us", dec.median(), "us", "host", "scenario.Load, "+note)
	r.set("scenario.fingerprint_us", fp.median(), "us", "host", "Scenario.Fingerprint, "+note)
	r.set("scenario.lower_us", low.median(), "us", "host", "Scenario."+lowerName+", "+note)
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// setServerCounts records the server-layer metrics; workloads that do
// not go through the server report them as zero.
func (r *report) setServerCounts(resultKB, rejected float64, note string) {
	r.set("server.result_kb", resultKB, "KiB", "host", "mean cold result size; "+note)
	r.set("server.rejected", rejected, "count", "host", "submissions answered with an unexpected status; "+note)
}
