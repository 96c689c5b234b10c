package main

import (
	"bytes"
	"fmt"
	"time"

	"gonoc/internal/core"
	"gonoc/internal/noctypes"
	"gonoc/internal/sim"
	"gonoc/internal/soc"
	"gonoc/internal/transport"
)

// Isolated layer drivers: small loops over one layer's public
// functions with inputs shaped like fig1-soc, so a change to that layer
// shows without the rest of the system around it. They run on every
// workload; their inputs do not depend on it.

const (
	// fig1Components is how many clocked components soc.BuildNoC
	// registers for the eight-socket Fig-1 mesh at this commit.
	fig1Components = 74
	driverReps     = 5
)

// runDrivers records sim.edge_ns, transport.idle_cycle_ns and the
// core codec metrics.
func runDrivers(r *report) error {
	cfg, err := fig1.lowerDoc(fig1Doc(1, 1), nil, 0, 0)
	if err != nil {
		return err
	}
	edge := medianOf(driverReps, edgeNS)
	r.set("sim.edge_ns", edge, "ns", "host",
		fmt.Sprintf("Clock.RunCycles over %d no-op components, median of %d", fig1Components, driverReps))
	idle := medianOf(driverReps, func() float64 { return idleCycleNS(cfg.Net) })
	r.set("transport.idle_cycle_ns", idle, "ns", "host",
		fmt.Sprintf("one cycle of the empty Fig-1 mesh, median of %d", driverReps))
	ns, allocs, err := codec()
	if err != nil {
		return err
	}
	r.set("core.codec_ns", ns, "ns", "host", "Encode+Decode of one request and its response, fig1-soc size mix")
	r.set("core.codec_allocs", allocs, "count", "host", "allocations per codec round trip")
	return nil
}

func medianOf(n int, f func() float64) float64 {
	s := make(samples, n)
	for i := range s {
		s[i] = f()
	}
	return s.median()
}

type noop struct{}

func (noop) Eval(int64)   {}
func (noop) Update(int64) {}

// edgeNS is the host time of one clock edge over fig1Components no-op
// components: the kernel and clock cost every fig1-soc cycle pays.
func edgeNS() float64 {
	const cycles = 200_000
	k := sim.NewKernel()
	clk := sim.NewClock(k, "edge", sim.Nanosecond, 0)
	for i := 0; i < fig1Components; i++ {
		clk.Register(noop{})
	}
	clk.RunCycles(1000)
	t0 := time.Now()
	clk.RunCycles(cycles)
	return float64(time.Since(t0).Nanoseconds()) / cycles
}

// fig1MeshSpec is soc.BuildNoC's mesh layout for the eight-socket build.
func fig1MeshSpec() transport.MeshSpec {
	nodes := []noctypes.NodeID{
		soc.NodeAXIM, soc.NodeOCPM, soc.NodeAHBM, soc.NodePVCIM, soc.NodeBVCIM, soc.NodeAVCIM, soc.NodePropM,
		soc.NodeAXIMem, soc.NodeOCPMem, soc.NodeAHBMem, soc.NodeBVCIMem, soc.NodeWBM, soc.NodeWBMem,
	}
	spec := transport.MeshSpec{W: 4, H: (len(nodes) + 3) / 4, Nodes: map[noctypes.NodeID]transport.Coord{}}
	for i, n := range nodes {
		spec.Nodes[n] = transport.Coord{X: i % 4, Y: i / 4}
	}
	return spec
}

// idleCycleNS clocks the Fig-1 fabric with no traffic: the cost of
// switches re-arbitrating idle lanes.
func idleCycleNS(net transport.NetConfig) float64 {
	const cycles = 20_000
	k := sim.NewKernel()
	clk := sim.NewClock(k, "idle", sim.Nanosecond, 0)
	if net.BufDepth == 0 {
		net.BufDepth = 16 // soc.BuildNoC's fabric default
	}
	transport.NewMesh(clk, net, fig1MeshSpec())
	clk.RunCycles(100)
	t0 := time.Now()
	clk.RunCycles(cycles)
	return float64(time.Since(t0).Nanoseconds()) / cycles
}

// codec round-trips requests and responses through the transaction
// layer's wire format over the generators' burst shapes (1 to 8 beats
// of 4 bytes, writes then read-backs), checking each decode.
func codec() (nsPerTrip, allocsPerTrip float64, err error) {
	type trip struct {
		req core.Request
		rsp core.Response
	}
	var trips []trip
	for beats := 1; beats <= 8; beats *= 2 {
		data := bytes.Repeat([]byte{byte(beats)}, beats*4)
		base := core.Request{Addr: soc.BaseAXIMem + 0x40, Size: 4, Len: uint16(beats), Burst: core.BurstIncr,
			Src: soc.NodeAXIM, Dst: soc.NodeAXIMem, Tag: noctypes.Tag(beats)}
		w, rd := base, base
		w.Cmd, w.Data = core.CmdWrite, data
		rd.Cmd = core.CmdRead
		trips = append(trips,
			trip{w, core.Response{Status: core.StOK, Src: soc.NodeAXIMem, Dst: soc.NodeAXIM, Tag: w.Tag}},
			trip{rd, core.Response{Status: core.StOK, Data: data, Src: soc.NodeAXIMem, Dst: soc.NodeAXIM, Tag: rd.Tag}})
	}
	roundTrip := func(t *trip) error {
		req, err := core.DecodeRequest(core.EncodeRequest(&t.req))
		if err != nil {
			return err
		}
		rsp, err := core.DecodeResponse(core.EncodeResponse(&t.rsp))
		if err != nil {
			return err
		}
		if req.Addr != t.req.Addr || req.Len != t.req.Len || !bytes.Equal(req.Data, t.req.Data) ||
			rsp.Status != t.rsp.Status || !bytes.Equal(rsp.Data, t.rsp.Data) {
			return fmt.Errorf("core codec round trip changed %v", &t.req)
		}
		return nil
	}
	const n = 200_000
	var times samples
	var mem memCount
	for rep := 0; rep < driverReps; rep++ {
		m0 := readMem()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := roundTrip(&trips[i%len(trips)]); err != nil {
				return 0, 0, err
			}
		}
		times = append(times, float64(time.Since(t0).Nanoseconds())/n)
		mem = mem.add(readMem().sub(m0))
	}
	return times.median(), float64(mem.mallocs) / (driverReps * n), nil
}
