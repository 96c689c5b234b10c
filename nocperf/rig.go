package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"gonoc/internal/noctypes"
	"gonoc/internal/obs"
	"gonoc/internal/scenario"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
	"gonoc/internal/traffic"
	"gonoc/internal/transport"
)

// mesh-rig-knee: the packet rig (traffic.Run) on an 8x8 mesh with 64
// endpoints, uniform-random open-loop traffic just under the
// saturation knee. Every switch is busy every cycle and no transaction
// layer code runs.
var meshRig = &simWorkload[traffic.Config]{
	name:         "mesh-rig-knee",
	inputs:       8,
	doc:          rigDoc,
	lowerName:    "PacketConfig",
	lower:        (*scenario.Scenario).PacketConfig,
	run:          rigRun,
	outputs:      rigOutputs,
	setupNote:    "traffic.Run walls minus Result.Wall.TotalMS",
	runNote:      "traffic.Run calls",
	opNote:       "traffic.Run (the rig builds inside the call, so ops are runs)",
	txnNote:      "measured rig transactions",
	p99Note:      "the p99 generation-to-response latency",
	overheadNote: "traffic.Run wall minus Result.Wall.TotalMS (rig build and result folding)",
}

const (
	rigNodes   = 64
	rigRate    = 0.03 // txn/node/cycle at 32 B payload: under the knee, incomplete == 0
	rigWarmup  = 1000
	rigMeasure = 2000
	rigDrain   = 30000
)

func rigDoc(seed int64, scale float64) []byte {
	return []byte(fmt.Sprintf(`{"version": 1, "name": "mesh-rig-knee", "seed": %d,
  "fabric": {"topology": "mesh", "nodes": %d},
  "workload": {"kind": "packet", "pattern": "uniform", "rate": %g, "payload_bytes": 32},
  "measure": {"warmup": %d, "measure": %d, "drain": %d}}
`, seed, rigNodes, rigRate, rigWarmup, max(100, int(rigMeasure*scale)), rigDrain))
}

// rigRun runs one input and checks its outputs.
func rigRun(cfg traffic.Config, opt options, t *tracer, parent, req uint64, probe obs.Probe) (simOut, error) {
	var out simOut
	cfg.CollectWall = true
	cfg.Probe = probe
	if opt.faults.noDrain {
		cfg.Drain = 1
	}
	sp := t.begin("traffic.Run", parent, req)
	m0 := readMem()
	t0 := time.Now()
	res := traffic.Run(cfg)
	out.run = time.Since(t0)
	out.mem = readMem().sub(m0)
	t.end(sp)
	out.op = out.run
	if res.Wall == nil {
		return out, errors.New("traffic.Run returned no wall-clock profile")
	}
	out.setup = out.run - time.Duration(res.Wall.TotalMS*1e6)
	out.txns = res.Latency.Count
	out.p99 = float64(res.Latency.P99)
	c := &out.counts
	c.cycles, c.events = float64(res.Cycles), float64(res.Wall.Events)
	c.flits, c.backpressure = float64(res.FabricFlits), float64(res.InjectBackpressure)

	res.Wall = nil // the one nondeterministic field
	h := sha256.New()
	if err := stats.WriteJSON(h, res); err != nil {
		return out, err
	}
	out.digest = fmt.Sprintf("%x", h.Sum(nil)[:8])
	if res.Incomplete != 0 {
		return out, fmt.Errorf("%d measured transactions incomplete after the drain", res.Incomplete)
	}
	return out, nil
}

// rigOutputs counts the router output ports of the rig's mesh, built
// the way the rig builds it.
func rigOutputs(cfg traffic.Config) float64 {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "ports", sim.Nanosecond, 0)
	w := 1
	for (w+1)*(w+1) <= rigNodes {
		w++
	}
	spec := transport.MeshSpec{W: w, H: (rigNodes + w - 1) / w, Nodes: map[noctypes.NodeID]transport.Coord{}}
	for i := 0; i < rigNodes; i++ {
		spec.Nodes[noctypes.NodeID(i+1)] = transport.Coord{X: i % w, Y: i / w}
	}
	ports := 0
	for _, r := range transport.NewMesh(clk, cfg.Net.WithDefaults(), spec).Routers() {
		ports += r.Ports()
	}
	return float64(ports)
}
