package experiments

import (
	"gonoc/internal/stats"
	"gonoc/internal/traffic"
	"gonoc/internal/transport"
)

// E12Result carries the cross-topology campaign so tests and benchmarks
// can assert shape.
type E12Result struct {
	Tables   []*stats.Table
	Campaign traffic.CampaignResult
	// SatTput and P99 index saturation throughput (txn/node/cycle) and
	// p99 end-to-end latency at the lowest common rate by pattern name,
	// then topology name.
	SatTput map[string]map[string]float64
	P99     map[string]map[string]int64
}

// e12Rates is the shared schedule: every topology sees identical offered
// loads, ending above any 16-node fabric's uniform saturation point so
// saturation throughput is a measured number, not an extrapolation.
var e12Rates = []float64{0.02, 0.06, 0.12, 0.20}

// e12Topologies is the comparison set: one switch (crossbar), grid
// (mesh), grid plus wraparound (torus), minimal links (ring), and a
// shared-root hierarchy (tree).
var e12Topologies = []transport.Topology{
	transport.Crossbar, transport.Mesh, transport.Torus, transport.Ring, transport.Tree,
}

// E12TopologyCampaign runs the same synthetic workloads — uniform-random
// and hotspot — over five fabric shapes at identical offered loads, via
// the parallel campaign runner, and reports saturation throughput and
// tail latency per topology. The paper's layering claim makes this a
// pure transport-layer study: not one generator or measurement hook
// changes between fabrics. Expected shape: the torus beats the mesh
// (wrap links halve hop counts and double the bisection — at 16 nodes
// it even tops the crossbar, whose single switch suffers head-of-line
// blocking at its input lanes); the ring's two-link bisection and the
// tree's shared root saturate first; and hotspot traffic flattens the
// differences because one ejection port bottlenecks every topology.
func E12TopologyCampaign(seed int64) E12Result {
	camp := traffic.Campaign(traffic.CampaignConfig{
		Base: traffic.Config{
			Seed: seed, Nodes: 16, PayloadBytes: 32,
			Warmup: 300, Measure: 1500, Drain: 10000,
			HotFrac: 0.5,
		},
		Topologies: e12Topologies,
		Patterns:   []traffic.Pattern{traffic.UniformRandom, traffic.Hotspot},
		Rates:      e12Rates,
	})

	res := E12Result{
		Campaign: camp,
		SatTput:  map[string]map[string]float64{},
		P99:      map[string]map[string]int64{},
	}
	summary := stats.NewTable("E12 — cross-topology saturation and tail latency (16 nodes, shared rate schedule)",
		"pattern", "topology", "sat rate", "sat tput (txn/node/cyc)", "p99 @0.02", "p99 @0.20", "avg hops @0.02")
	for _, c := range camp.Curves {
		if res.SatTput[c.Pattern] == nil {
			res.SatTput[c.Pattern] = map[string]float64{}
			res.P99[c.Pattern] = map[string]int64{}
		}
		res.SatTput[c.Pattern][c.Topology] = c.SatThroughput
		low, high := c.Points[0], c.Points[len(c.Points)-1]
		res.P99[c.Pattern][c.Topology] = low.Latency.P99
		summary.AddRow(c.Pattern, c.Topology, c.SatRate, c.SatThroughput,
			low.Latency.P99, high.Latency.P99, low.AvgHops)
	}

	curve := stats.NewTable("E12 — uniform-random throughput vs offered load by topology",
		"offered", "crossbar", "mesh", "torus", "ring", "tree")
	for i := range e12Rates {
		row := make([]any, 0, 6)
		row = append(row, e12Rates[i])
		for _, c := range camp.Curves {
			if c.Pattern != traffic.UniformRandom.String() {
				continue
			}
			row = append(row, c.Points[i].Throughput)
		}
		curve.AddRow(row...)
	}

	res.Tables = []*stats.Table{summary, curve}
	return res
}
