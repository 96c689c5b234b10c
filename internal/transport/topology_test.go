package transport

import (
	"reflect"
	"testing"

	"gonoc/internal/noctypes"
	"gonoc/internal/sim"
)

// allTopologies lists every topology in display order.
var allTopologies = []Topology{Crossbar, Mesh, Torus, Ring, Tree}

func TestTopologyNames(t *testing.T) {
	for _, tp := range allTopologies {
		got, err := ParseTopology(tp.String())
		if err != nil || got != tp {
			t.Fatalf("ParseTopology(%q) = %v, %v", tp.String(), got, err)
		}
	}
	if tp, err := ParseTopology(" XBar "); err != nil || tp != Crossbar {
		t.Fatal("ParseTopology(xbar) alias broken")
	}
	if _, err := ParseTopology("hypercube"); err == nil {
		t.Fatal("bad topology accepted")
	}
}

// TestBuildMatchesConstructors checks Build against the builders it
// dispatches to, called by hand with the layout spelled out: the same
// switches, ports and routes, node for node.
func TestBuildMatchesConstructors(t *testing.T) {
	nodes := []noctypes.NodeID{1, 2, 3, 4, 5, 6, 7, 100, 101, 102, 103} // the SoC's eleven sockets
	grid := MeshSpec{W: 4, H: 3, Nodes: map[noctypes.NodeID]Coord{}}
	for i, n := range nodes {
		grid.Nodes[n] = Coord{X: i % 4, Y: i / 4}
	}
	cfg := NetConfig{}.WithDefaults()
	newClk := func() *sim.Clock { return sim.NewClock(sim.NewKernel(), "noc", sim.Nanosecond, 0) }
	direct := map[Topology]func(*sim.Clock) *Network{
		Crossbar: func(c *sim.Clock) *Network { return NewCrossbar(c, cfg, nodes) },
		Mesh:     func(c *sim.Clock) *Network { return NewMesh(c, cfg, grid) },
		Torus:    func(c *sim.Clock) *Network { return NewTorus(c, cfg, grid) },
		Ring:     func(c *sim.Clock) *Network { return NewRing(c, cfg, nodes) },
		Tree:     func(c *sim.Clock) *Network { return NewTree(c, cfg, 3, nodes) },
	}
	shape := func(n *Network) (names []string, ports []int, paths [][]LinkID) {
		for _, r := range n.Routers() {
			names = append(names, r.Name())
			ports = append(ports, r.Ports())
		}
		for _, a := range nodes {
			for _, b := range nodes {
				paths = append(paths, n.Path(a, b))
			}
		}
		return
	}
	for _, tp := range allTopologies {
		built := Build(newClk(), cfg, Layout{Topology: tp, W: 4, Fanout: 3}, nodes)
		want := direct[tp](newClk())
		bn, bp, bpath := shape(built)
		wn, wp, wpath := shape(want)
		if !reflect.DeepEqual(bn, wn) || !reflect.DeepEqual(bp, wp) || !reflect.DeepEqual(bpath, wpath) {
			t.Fatalf("%s: Build differs from the direct constructor:\n  built:  %v %v\n  direct: %v %v", tp, bn, bp, wn, wp)
		}
	}
}

func TestBuildRejectsSmallGrid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a 2x2 mesh accepted 5 nodes")
		}
	}()
	clk := sim.NewClock(sim.NewKernel(), "noc", sim.Nanosecond, 0)
	Build(clk, NetConfig{}, Layout{Topology: Mesh, W: 2, H: 2}, []noctypes.NodeID{1, 2, 3, 4, 5})
}
