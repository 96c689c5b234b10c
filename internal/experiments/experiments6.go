package experiments

import (
	"fmt"

	"gonoc/internal/obs"
	"gonoc/internal/stats"
	"gonoc/internal/traffic"
	"gonoc/internal/transport"
)

// E13 is the "why" behind E12's hotspot cliff. E12 measures that under
// hotspot traffic every topology saturates at nearly the same offered
// load — the wrap links that let the torus beat the mesh under uniform
// traffic buy almost nothing. E13 attaches the congestion heatmap
// (internal/obs.LinkMonitor) to the same workload at a saturating rate
// and reads the per-link utilization directly: on both fabrics the
// first link to hit ~100% busy is the hot router's ejection port — the
// one link no topology can duplicate — while the second tier differs
// (the mesh concentrates the remaining load on the few XY-routed feeder
// links into the hot corner; the torus's wrap links spread the feeders
// flatter without moving the ejection bottleneck).

// e13Rate is the offered load for the heatmap runs: the top of E12's
// shared schedule, comfortably past every fabric's hotspot saturation
// point, so the bottleneck links are pinned at their ceiling.
const e13Rate = 0.20

// e13Bucket is the heatmap time-bucket width in cycles.
const e13Bucket = 256

// E13Result carries the heatmaps so tests, the JSON artifact, and the
// tables all read the same data.
type E13Result struct {
	Tables   []*stats.Table
	Results  []traffic.Result    // mesh, torus
	Heatmaps []obs.HeatmapReport // mesh, torus (same order as Results)
}

// e13PortName labels a mesh/torus switch output for the tables
// (transport's port layout: 0 local/ejection, then E/W/N/S).
func e13PortName(port int) string {
	names := []string{"local(eject)", "east", "west", "north", "south"}
	if port < len(names) {
		return names[port]
	}
	return fmt.Sprintf("p%d", port)
}

// E13CongestionHeatmap runs hotspot traffic at a saturating rate on the
// 16-node mesh and torus with the congestion heatmap attached, and
// tabulates which links hit their ceiling first.
func E13CongestionHeatmap(seed int64) E13Result {
	res := E13Result{}
	for _, topo := range []transport.Topology{transport.Mesh, transport.Torus} {
		mon := obs.NewLinkMonitor(e13Bucket)
		r := traffic.Run(traffic.Config{
			Seed: seed, Nodes: 16, Topology: topo,
			Pattern: traffic.Hotspot, HotFrac: 0.5, Rate: e13Rate,
			PayloadBytes: 32,
			Warmup:       300, Measure: 1500, Drain: 10000,
			Probe: mon,
		})
		res.Results = append(res.Results, r)
		res.Heatmaps = append(res.Heatmaps, mon.Report(topo.String()+"/hotspot@0.2"))
	}

	summary := stats.NewTable(
		"E13 — hotspot saturation explained: per-link utilization at offered 0.20 (16 nodes, hot node 0)",
		"topology", "fabric flits", "links used", "hottest link", "util", "stall cyc",
		"top-4 flit share")
	hottest := stats.NewTable(
		"E13 — eight hottest links per fabric (lifetime utilization = flits/cycle)",
		"topology", "link", "flits", "util", "stall cyc", "peak occ")
	for i, rep := range res.Heatmaps {
		topo := res.Results[i].Topology
		top := rep.Hottest(8)
		var top4 uint64
		for j, lh := range top {
			if j < 4 {
				top4 += lh.Flits
			}
			hottest.AddRow(topo,
				fmt.Sprintf("%s %s", lh.RouterName, e13PortName(lh.Port)),
				lh.Flits, lh.Utilization, lh.StallCycles, lh.PeakOccupancy)
		}
		share := 0.0
		if rep.TotalFlits > 0 {
			share = float64(top4) / float64(rep.TotalFlits)
		}
		summary.AddRow(topo, rep.TotalFlits, len(rep.Links),
			fmt.Sprintf("%s %s", top[0].RouterName, e13PortName(top[0].Port)),
			top[0].Utilization, top[0].StallCycles, share)
	}

	res.Tables = []*stats.Table{summary, hottest}
	return res
}
