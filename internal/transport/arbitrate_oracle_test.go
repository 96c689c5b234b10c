package transport

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gonoc/internal/noctypes"
	"gonoc/internal/sim"
)

// The switch allocator only arbitrates outputs that some ready lane
// bids for, and skips idle switches outright. The reference below is the
// allocator it replaced: every free output scans every input lane, with
// a route lookup per lane. The differential test drives identical
// traffic through one fabric stepped by each and requires the same
// grants and the same counters on every switch, every cycle.

// arbitrateRef is the O(outputs × lanes) reference for arbitrate.
func (r *Router) arbitrateRef(o int) laneRef {
	var cands []arbCand
	for p := range r.lanes {
		for v := 0; v < NumVCs; v++ {
			if r.laneAl[p][v] != -1 {
				continue
			}
			hs, ok := r.ready(p, v)
			if !ok {
				continue
			}
			lane := r.lanes[p][v]
			hdr := &lane.ring.hdr[hs]
			if r.routeFor(hdr.Dst) != o {
				continue
			}
			if lk := r.outLock[o]; lk >= 0 && noctypes.NodeID(lk) != hdr.Src {
				r.stats.LockStalls++
				continue
			}
			if r.cfg.CutThrough {
				need := FlitCount(HeaderBytes+int(hdr.PayloadLen), r.cfg.FlitBytes)
				ovc := r.outVC(p, o, lane.ring.vc[hs])
				if !r.outs[o][ovc].canPush(need) {
					continue
				}
			}
			cands = append(cands, arbCand{laneRef{p, v}, hdr.Priority})
		}
	}
	if len(cands) == 0 {
		return noLane
	}
	if r.cfg.QoS {
		var max noctypes.Priority
		for _, c := range cands {
			if c.pri > max {
				max = c.pri
			}
		}
		kept := cands[:0]
		for _, c := range cands {
			if c.pri == max {
				kept = append(kept, c)
			}
		}
		cands = kept
	}
	best := noLane
	bestRank := 1 << 30
	n := len(r.lanes)
	for _, c := range cands {
		rank := ((c.ln.port-r.rr[o])%n+n)%n*NumVCs + (NumVCs - 1 - c.ln.vc)
		if rank < bestRank {
			bestRank = rank
			best = c.ln
		}
	}
	if len(cands) > 1 {
		r.stats.BusyStalls += uint64(len(cands) - 1)
	}
	return best
}

// evalRef is eval without the idle-switch return or the bid pass:
// every free, connected output is arbitrated by arbitrateRef.
func (r *Router) evalRef(cycle int64) {
	r.advanceHeld(cycle)
	for o := range r.outHold {
		if r.outHold[o] != noLane || r.outFreed[o] == cycle || r.outs[o][VCNormal] == nil {
			continue
		}
		if win := r.arbitrateRef(o); win != noLane {
			r.grant(cycle, o, win)
		}
	}
}

// stepRef is one netTick edge with every switch evaluated by evalRef
// and every flit queue committed, touched this cycle or not.
func stepRef(n *Network, cycle int64) {
	for _, r := range n.routers {
		r.evalRef(cycle)
	}
	for _, ep := range n.epList {
		ep.eval(cycle)
	}
	for _, r := range n.routers {
		for _, port := range r.lanes {
			for _, q := range port {
				q.commit()
			}
		}
	}
	for _, ep := range n.epList {
		ep.sendQ.commit()
		ep.ej.commit()
	}
	n.touched = n.touched[:0]
	for _, ep := range n.epList {
		if !ep.recvQ.Quiescent() {
			ep.recvQ.Update(cycle)
		}
	}
}

// oracleCase is one fabric configuration of the differential test.
type oracleCase struct {
	topo       string
	mode       SwitchingMode
	qos, lock  bool
	cutThrough bool // forced on acyclic fabrics; ring and torus always use it
}

// buildOracleNet builds an n-endpoint fabric with nodes 1..n. The clock
// is never run: the test steps the fabric by hand.
func buildOracleNet(c oracleCase, n int) *Network {
	clk := sim.NewClock(sim.NewKernel(), "noc", sim.Nanosecond, 0)
	cfg := NetConfig{Mode: c.mode, QoS: c.qos, LegacyLock: c.lock}
	nodes := make([]noctypes.NodeID, n)
	for i := range nodes {
		nodes[i] = noctypes.NodeID(i + 1)
	}
	var net *Network
	switch c.topo {
	case "mesh", "torus":
		w := int(math.Ceil(math.Sqrt(float64(n))))
		spec := MeshSpec{W: w, H: (n + w - 1) / w, Nodes: map[noctypes.NodeID]Coord{}}
		for i, nd := range nodes {
			spec.Nodes[nd] = Coord{X: i % w, Y: i / w}
		}
		if c.topo == "torus" {
			net = NewTorus(clk, cfg, spec)
		} else {
			net = NewMesh(clk, cfg, spec)
		}
	case "ring":
		net = NewRing(clk, cfg, nodes)
	case "tree":
		net = NewTree(clk, cfg, 3, nodes)
	default:
		net = NewCrossbar(clk, cfg, nodes)
	}
	if c.cutThrough {
		net.cutThrough = true
		for _, r := range net.routers {
			r.cfg.CutThrough = true
		}
	}
	return net
}

// lockSeq is a source's legacy-lock sequence in progress: left locked
// packets to dst, the last of which unlocks.
type lockSeq struct {
	dst  noctypes.NodeID
	left int
}

// oracleTotals accumulates coverage across cases.
type oracleTotals struct {
	delivered, lockStalls, busyStalls, outStalls uint64
}

// runOracle drives one random workload through a fabric stepped by eval
// and one stepped by evalRef in lockstep, failing on the first cycle
// whose grants or counters differ.
func runOracle(t *testing.T, c oracleCase, seed int64, tot *oracleTotals) {
	rng := rand.New(rand.NewSource(seed))
	nodes := 4 + rng.Intn(6)
	fast, ref := buildOracleNet(c, nodes), buildOracleNet(c, nodes)
	const sendCycles, cycles = 700, 1100
	rate := 0.05 + 0.15*rng.Float64()
	locks := map[noctypes.NodeID]*lockSeq{}
	var pkt Packet
	var got, want []*Packet

	for cycle := int64(0); cycle < cycles; cycle++ {
		for i := 1; i <= nodes; i++ {
			nd := noctypes.NodeID(i)
			got = fast.Endpoint(nd).RecvAll(got[:0])
			want = ref.Endpoint(nd).RecvAll(want[:0])
			if len(got) != len(want) {
				t.Fatalf("cycle %d: %v received %d packets, reference %d", cycle, nd, len(got), len(want))
			}
			for k := range got {
				g, w := got[k], want[k]
				if g.Header != w.Header || string(g.Payload) != string(w.Payload) {
					t.Fatalf("cycle %d: %v received %+v, reference %+v", cycle, nd, g.Header, w.Header)
				}
				if g.Unlock {
					fast.ReleaseLock(g.Src)
					ref.ReleaseLock(g.Src)
				}
				tot.delivered++
				fast.Recycle(g)
				ref.Recycle(w)
			}
		}
		for i := 1; cycle < sendCycles && i <= nodes; i++ {
			src := noctypes.NodeID(i)
			seq := locks[src]
			if seq == nil && rng.Float64() >= rate {
				continue
			}
			dst := noctypes.NodeID(1 + rng.Intn(nodes-1))
			if dst >= src {
				dst++
			}
			if _, held := fast.LockHolder(); seq == nil && c.lock && !held && rng.Intn(8) == 0 {
				a, b := fast.TryAcquireLock(src), ref.TryAcquireLock(src)
				if a != b {
					t.Fatalf("cycle %d: lock token diverged for %v", cycle, src)
				}
				if a {
					seq = &lockSeq{dst: dst, left: 1 + rng.Intn(3)}
					locks[src] = seq
				}
			}
			payload := make([]byte, rng.Intn(49)) // at most 8 flits: fits SAF and cut-through lanes
			rng.Read(payload)
			pkt = Packet{Header: Header{
				Kind: KindReq, Src: src, Dst: dst, Tag: noctypes.Tag(cycle),
				Priority: noctypes.Priority(rng.Intn(4)),
			}, Payload: payload}
			if seq != nil {
				pkt.Dst = seq.dst
				pkt.Locked = true
				pkt.Unlock = seq.left == 1
			}
			a := fast.Endpoint(src).TrySend(&pkt)
			if b := ref.Endpoint(src).TrySend(&pkt); a != b {
				t.Fatalf("cycle %d: TrySend at %v = %v, reference %v", cycle, src, a, b)
			}
			if a && seq != nil {
				if seq.left--; seq.left == 0 {
					delete(locks, src)
				}
			}
		}

		netTick{fast}.Eval(cycle)
		netTick{fast}.Update(cycle)
		stepRef(ref, cycle)

		for ri, r := range fast.routers {
			rr := ref.routers[ri]
			if !slices.Equal(r.outHold, rr.outHold) {
				t.Fatalf("cycle %d: %s grants %v, reference %v", cycle, r.name, r.outHold, rr.outHold)
			}
			fs, rs := r.Stats(), rr.Stats()
			if fs.FlitsMoved != rs.FlitsMoved || fs.PktsMoved != rs.PktsMoved ||
				fs.LockStalls != rs.LockStalls || fs.BusyStalls != rs.BusyStalls ||
				!slices.Equal(fs.OutBusy, rs.OutBusy) || !slices.Equal(fs.OutStall, rs.OutStall) {
				t.Fatalf("cycle %d: %s stats %+v, reference %+v", cycle, r.name, fs, rs)
			}
			held, buffered := 0, 0
			for _, ln := range r.outHold {
				if ln != noLane {
					held++
				}
			}
			for _, port := range r.lanes {
				for _, q := range port {
					buffered += q.occupancy()
				}
			}
			if r.held != held || r.buffered != buffered {
				t.Fatalf("cycle %d: %s activity counters held=%d buffered=%d, lanes say %d/%d",
					cycle, r.name, r.held, r.buffered, held, buffered)
			}
		}
	}
	for _, r := range fast.routers {
		st := r.Stats()
		tot.lockStalls += st.LockStalls
		tot.busyStalls += st.BusyStalls
		for _, s := range st.OutStall {
			tot.outStalls += s
		}
	}
}

// TestArbitrationMatchesOracle runs the differential test over all five
// topologies × wormhole/SAF × QoS × legacy lock × cut-through (ring and
// torus are always cut-through and support no lock sequences).
func TestArbitrationMatchesOracle(t *testing.T) {
	var tot oracleTotals
	seed := int64(1)
	for _, topo := range []string{"crossbar", "mesh", "torus", "ring", "tree"} {
		for _, mode := range []SwitchingMode{Wormhole, StoreAndForward} {
			for _, qos := range []bool{false, true} {
				for _, lock := range []bool{false, true} {
					for _, cut := range []bool{false, true} {
						if (cut || lock) && (topo == "ring" || topo == "torus") {
							continue // always cut-through; the lock VC is their escape lane
						}
						c := oracleCase{topo: topo, mode: mode, qos: qos, lock: lock, cutThrough: cut}
						seed++
						s := seed
						name := fmt.Sprintf("%s/%v/qos=%v/lock=%v/cut=%v", topo, mode, qos, lock, cut)
						t.Run(name, func(t *testing.T) { runOracle(t, c, s, &tot) })
					}
				}
			}
		}
	}
	if tot.delivered == 0 || tot.lockStalls == 0 || tot.busyStalls == 0 || tot.outStalls == 0 {
		t.Fatalf("workload too gentle to exercise the allocator: %+v", tot)
	}
}
