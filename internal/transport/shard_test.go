package transport

import (
	"testing"

	"gonoc/internal/noctypes"
	"gonoc/internal/obs"
	"gonoc/internal/sim"
)

// meshNet builds a W x H mesh with one endpoint per router and the given
// shard count (0 = serial).
func meshNet(w, h, shards int) (*sim.Clock, *Network, []*Endpoint) {
	k := sim.NewKernel()
	clk := sim.NewClock(k, "t", sim.Nanosecond, 0)
	spec := MeshSpec{W: w, H: h, Nodes: map[noctypes.NodeID]Coord{}}
	nodes := make([]noctypes.NodeID, 0, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			id := noctypes.NodeID(y*w + x + 1)
			spec.Nodes[id] = Coord{X: x, Y: y}
			nodes = append(nodes, id)
		}
	}
	net := NewMesh(clk, NetConfig{BufDepth: 8, Shards: shards}, spec)
	eps := make([]*Endpoint, len(nodes))
	for i, id := range nodes {
		eps[i] = net.Endpoint(id)
	}
	return clk, net, eps
}

func TestShardPartitionDefaults(t *testing.T) {
	t.Run("mesh-quadrants", func(t *testing.T) {
		_, net, _ := meshNet(4, 4, 4)
		if net.NumShards() != 4 {
			t.Fatalf("NumShards = %d, want 4", net.NumShards())
		}
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				want := y/2*2 + x/2 // 2x2 blocks of routers
				if got := net.ShardOf(y*4 + x); got != want {
					t.Errorf("router (%d,%d) on shard %d, want quadrant %d", x, y, got, want)
				}
			}
		}
	})
	t.Run("ring-arcs", func(t *testing.T) {
		k := sim.NewKernel()
		clk := sim.NewClock(k, "t", sim.Nanosecond, 0)
		nodes := make([]noctypes.NodeID, 8)
		for i := range nodes {
			nodes[i] = noctypes.NodeID(i + 1)
		}
		net := NewRing(clk, NetConfig{BufDepth: 8, Shards: 2}, nodes)
		for i := 0; i < 8; i++ {
			want := i / 4 // two contiguous arcs
			if got := net.ShardOf(i); got != want {
				t.Errorf("ring router %d on shard %d, want %d", i, got, want)
			}
		}
	})
	t.Run("tree-subtrees", func(t *testing.T) {
		k := sim.NewKernel()
		clk := sim.NewClock(k, "t", sim.Nanosecond, 0)
		nodes := make([]noctypes.NodeID, 8)
		for i := range nodes {
			nodes[i] = noctypes.NodeID(i + 1)
		}
		net := NewTree(clk, NetConfig{BufDepth: 8, Shards: 2}, 2, nodes)
		if got := net.ShardOf(0); got != 0 {
			t.Errorf("tree root on shard %d, want 0", got)
		}
		// 4 leaves at router indices 1..4: first two on shard 0, rest on 1.
		for l := 0; l < 4; l++ {
			want := l / 2
			if got := net.ShardOf(l + 1); got != want {
				t.Errorf("leaf %d on shard %d, want %d", l, got, want)
			}
		}
	})
	t.Run("crossbar-endpoint-spread", func(t *testing.T) {
		k := sim.NewKernel()
		clk := sim.NewClock(k, "t", sim.Nanosecond, 0)
		nodes := make([]noctypes.NodeID, 8)
		for i := range nodes {
			nodes[i] = noctypes.NodeID(i + 1)
		}
		net := NewCrossbar(clk, NetConfig{BufDepth: 8, Shards: 4}, nodes)
		if got := net.ShardOf(0); got != 0 {
			t.Errorf("crossbar switch on shard %d, want 0", got)
		}
		for i, id := range nodes {
			if got := net.Endpoint(id).Shard(); got != i/2 {
				t.Errorf("endpoint %d on shard %d, want %d", i, got, i/2)
			}
		}
	})
}

func TestShardedProbeRejected(t *testing.T) {
	_, net, _ := meshNet(4, 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("SetProbe on a sharded fabric did not panic")
		}
	}()
	net.SetProbe(probeStub{})
}

// probeStub is the minimal obs.Probe for the rejection test.
type probeStub struct{}

func (probeStub) Event(ev obs.Event) {}

// TestUnboundPartitionPanics: a partitioned fabric runs only on the
// shard clocks BindShards installs; ticking it on its build clock is a
// wiring bug and must fail loudly instead of running with unbound
// exchange wires.
func TestUnboundPartitionPanics(t *testing.T) {
	clk, _, _ := meshNet(4, 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("ticking an unbound partitioned fabric did not panic")
		}
	}()
	clk.RunCycles(1)
}
