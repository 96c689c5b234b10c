package transport

import (
	"fmt"

	"gonoc/internal/sim"
)

// This file partitions one fabric across N kernel shards. The partition is
// spatial — every router (with its input lanes) and every endpoint (with its
// send/eject/receive queues and packet pool) is owned by exactly one shard —
// and the single-writer discipline of the serial fabric carries over: each
// lane still has exactly one component staging into it per cycle. The only
// new mechanism is the exchange wire (xwire), which carries a writer's
// staged flits across a shard boundary so the writer never touches a lane it
// does not own.
//
// Determinism: a lane's committed contents after each edge are a pure
// function of what its single writer staged, in staging order. The xwire
// preserves that order (it is drained front to back into the destination
// lane before the owner commits), and its credit check reads only fields
// that are stable for the whole Eval phase (startLen and capacity, written
// only at commit). Admission decisions, lane contents, and therefore every
// downstream statistic are byte-identical to the serial run for any shard
// count. Exchange buffers are drained in a fixed (shard, link, seq) order —
// wires are created in deterministic builder order and each carries its
// flits in staging order — though with one writer per lane the order is
// forced; the fixed order makes that visible and keeps it so if lanes ever
// gain multiple feeders.

// pktPool is a packet-descriptor free list. Each shard owns one, so pooled
// descriptors never cross goroutines (no races, no false sharing); the
// serial fabric uses a single pool with identical behaviour.
type pktPool struct {
	free []*Packet
}

func (pl *pktPool) get() *Packet {
	if k := len(pl.free); k > 0 {
		p := pl.free[k-1]
		pl.free[k-1] = nil
		pl.free = pl.free[:k-1]
		return p
	}
	return &Packet{}
}

func (pl *pktPool) newPacket(payloadBytes int) *Packet {
	p := pl.get()
	if cap(p.Payload) < payloadBytes {
		p.Payload = make([]byte, payloadBytes)
	} else {
		p.Payload = p.Payload[:payloadBytes]
		clear(p.Payload)
	}
	return p
}

func (pl *pktPool) recycle(p *Packet) {
	if p == nil {
		return
	}
	payload := p.Payload[:0]
	*p = Packet{}
	p.Payload = payload
	pl.free = append(pl.free, p)
}

// xwire is a staged exchange buffer for one cross-shard link: the single
// writer of a remote lane stages flits here during its Eval, and the lane's
// owning shard drains them into the lane's staging window during its Update
// (before committing the lane). Credit is mirrored writer-side: canPush
// reads only dst.startLen and dst.capacity, both stable during the parallel
// Eval phase, plus the wire's own staged count — exactly the quantity the
// serial writer's dst.pend would hold.
type xwire struct {
	dst    *flitQ
	ring   flitSlots
	stride int
	n      int // flits staged this cycle, in staging order
}

func newXwire(dst *flitQ) *xwire {
	if dst.unbounded {
		// Unbounded lanes are endpoint send queues, which are always
		// written by their own endpoint's shard; a cross-shard writer is a
		// partition bug.
		panic(fmt.Sprintf("transport: exchange wire to unbounded lane %q", dst.name))
	}
	// Staged flits can never exceed capacity - startLen <= capacity, so a
	// flat capacity-sized buffer needs no wraparound.
	return &xwire{dst: dst, ring: newFlitSlots(dst.capacity, dst.stride), stride: dst.stride}
}

// canPush mirrors flitQ.canPush for the remote lane: the committed length
// at cycle start plus this wire's own staged flits.
func (w *xwire) canPush(k int) bool {
	return w.dst.startLen+w.n+k <= w.dst.capacity
}

// stage reserves the next slot and returns its index into w.ring; the
// caller fills the parallel arrays directly, as with flitQ.stagePush.
func (w *xwire) stage() int {
	i := w.n
	w.n++
	return i
}

// drain copies the staged flits into the destination lane's staging window
// in staging order. Called by the lane's owning shard during its Update,
// before the lane commits.
func (w *xwire) drain() {
	for i := 0; i < w.n; i++ {
		si := w.dst.stagePush()
		w.dst.ring.copySlot(si, &w.ring, i, w.stride)
	}
	w.n = 0
}

// pendingTransit is a completed packet journey observed by an ejecting
// shard, deferred to the serial merge point (the source endpoint's times
// map and the OnTransit hook are not shard-local).
type pendingTransit struct {
	pkt   *Packet
	eject int64
	hops  uint8
}

// shardState is everything one shard owns: its routers and endpoints, the
// lanes it commits, the exchange wires it drains, its packet free list, and
// its slices of the fabric-wide counters.
type shardState struct {
	routers []*Router
	eps     []*Endpoint
	qs      []*flitQ // lanes committed by this shard
	wires   []*xwire // exchange wires whose destination lanes this shard owns
	pool    pktPool

	injected, ejected uint64

	transits []pendingTransit
}

// planShards partitions the fabric. routerShard[i] is router i's shard;
// epShard (indexed in attach order) may be nil, in which case each endpoint
// follows its router. Builders call this once, after all attaches, when
// cfg.Shards >= 2. Empty shards are legal: a shard that owns nothing simply
// ticks nothing.
func (n *Network) planShards(routerShard []int, epShard []int) {
	S := n.cfg.Shards
	if S < 2 {
		panic(fmt.Sprintf("transport: planShards with Shards=%d", S))
	}
	if len(routerShard) != len(n.routers) {
		panic(fmt.Sprintf("transport: planShards: %d router assignments for %d routers", len(routerShard), len(n.routers)))
	}
	if epShard == nil {
		epShard = make([]int, len(n.epList))
		for i, ep := range n.epList {
			epShard[i] = routerShard[ep.router.index]
		}
	}
	if len(epShard) != len(n.epList) {
		panic(fmt.Sprintf("transport: planShards: %d endpoint assignments for %d endpoints", len(epShard), len(n.epList)))
	}
	n.shards = make([]shardState, S)
	n.routerShard = routerShard

	// Lane ownership: a router owns its input lanes; an endpoint owns its
	// send queue and ejection buffer. The owner is always the lane's
	// reader, so pops never cross a shard boundary.
	owner := make(map[*flitQ]int, len(n.qs))
	for ri, r := range n.routers {
		s := routerShard[ri]
		if s < 0 || s >= S {
			panic(fmt.Sprintf("transport: planShards: router %d assigned to shard %d of %d", ri, s, S))
		}
		n.shards[s].routers = append(n.shards[s].routers, r)
		for _, vcs := range r.lanes {
			for _, q := range vcs {
				owner[q] = s
			}
		}
	}
	for i, ep := range n.epList {
		s := epShard[i]
		if s < 0 || s >= S {
			panic(fmt.Sprintf("transport: planShards: endpoint %d assigned to shard %d of %d", i, s, S))
		}
		ep.shard = s
		ep.pool = &n.shards[s].pool
		n.shards[s].eps = append(n.shards[s].eps, ep)
		owner[ep.sendQ] = s
		owner[ep.ej] = s
	}
	// Partition the commit list, preserving the serial commit order within
	// each shard.
	for _, q := range n.qs {
		s, ok := owner[q]
		if !ok {
			panic(fmt.Sprintf("transport: planShards: lane %q has no owner", q.name))
		}
		n.shards[s].qs = append(n.shards[s].qs, q)
	}
	// Exchange wires, in fixed (shard, link, seq) construction order:
	// router outputs by (router index, output port, VC), then endpoint
	// injections by (attach order, VC). Endpoint ejection lanes alias one
	// flitQ across both VCs, so consecutive aliased outputs share one wire —
	// the credit mirror must count both VCs' pushes against the one lane.
	for ri, r := range n.routers {
		rs := routerShard[ri]
		for o := range r.outs {
			for v := 0; v < NumVCs; v++ {
				dst := r.outs[o][v]
				if dst == nil || owner[dst] == rs {
					continue
				}
				if r.xouts == nil {
					r.xouts = make([][]*xwire, len(r.outs))
					for p := range r.xouts {
						r.xouts[p] = make([]*xwire, NumVCs)
					}
				}
				if v > 0 && dst == r.outs[o][v-1] {
					r.xouts[o][v] = r.xouts[o][v-1]
					continue
				}
				w := newXwire(dst)
				r.xouts[o][v] = w
				n.shards[owner[dst]].wires = append(n.shards[owner[dst]].wires, w)
			}
		}
	}
	for i, ep := range n.epList {
		es := epShard[i]
		for v := 0; v < NumVCs; v++ {
			lane := ep.router.lanes[ep.port][v]
			if owner[lane] == es {
				continue
			}
			w := newXwire(lane)
			ep.xinj[v] = w
			n.shards[owner[lane]].wires = append(n.shards[owner[lane]].wires, w)
		}
	}
}

// NumShards returns the number of shards the fabric is partitioned into
// (1 when serial).
func (n *Network) NumShards() int {
	if n.shards == nil {
		return 1
	}
	return len(n.shards)
}

// ShardOf returns the shard owning a router by index.
func (n *Network) ShardOf(router int) int {
	if n.routerShard == nil {
		return 0
	}
	return n.routerShard[router]
}

// ShardOccupancy returns the flits currently buffered in shard s's lanes.
// Read it between cycles (it is not synchronized against a running group).
func (n *Network) ShardOccupancy(s int) int {
	t := 0
	for _, q := range n.shards[s].qs {
		t += q.occupancy()
	}
	return t
}

// shardLookahead derives the group's conservative horizon from the minimum
// cross-shard link latency. Every lane in the fabric is a flitQ with
// register semantics — flits staged on one edge become visible on the next —
// so every cross-shard link (exchange wire) has a forward latency of
// exactly one cycle, and the minimum over the cut is one cycle. The group
// barriers every cycle, matching the lookahead exactly: no shard can
// observe a peer's current-cycle writes before the barrier publishes them.
func (n *Network) shardLookahead() int64 {
	const laneLatencyCycles = 1
	return laneLatencyCycles
}

// BindShards moves the fabric onto a sim.ShardGroup: each shard's tick runs
// on its own group clock, and cross-shard transit records merge at the
// group's horizon barrier. The fabric must have been built with
// NetConfig.Shards equal to the group's shard count. Not compatible with
// probes (instrumentation assumes a serial fabric) and must be called
// before the simulation starts.
//
// After BindShards, TrySend/Recv/Recycle for an endpoint must be called
// only from components registered on that endpoint's shard clock
// (Endpoint.ShardClock), and packet IDs switch from one fabric-wide
// sequence to per-endpoint streams — unique and deterministic, but
// different values from the serial run. Nothing downstream of the fabric
// depends on ID values, so results remain byte-identical.
func (n *Network) BindShards(g *sim.ShardGroup) {
	if n.shards == nil {
		panic("transport: BindShards requires NetConfig.Shards >= 2 at build time")
	}
	if n.bound {
		panic("transport: BindShards called twice")
	}
	if n.probe != nil {
		panic("transport: sharded fabrics do not support probes")
	}
	if g.Shards() != len(n.shards) {
		panic(fmt.Sprintf("transport: group has %d shards, fabric partitioned into %d", g.Shards(), len(n.shards)))
	}
	n.bound = true
	g.SetLookahead(n.shardLookahead())
	g.SetSerial(n.resolveTransits)
	for s := range n.shards {
		g.Clock(s).Register(&shardTick{n: n, s: s})
	}
	for _, ep := range n.epList {
		ep.clk = g.Clock(ep.shard)
	}
}

// ShardClock returns the clock driving this endpoint's shard (the fabric
// clock when serial). Components that talk to the endpoint — sources,
// sinks — must register here so their calls stay on the owning shard.
func (ep *Endpoint) ShardClock() *sim.Clock { return ep.clk }

// Shard returns the endpoint's owning shard (0 when serial).
func (ep *Endpoint) Shard() int { return ep.shard }

// shardTick drives one shard's slice of the fabric from its group clock.
type shardTick struct {
	n *Network
	s int
}

func (t *shardTick) Eval(cycle int64) { t.n.shardEval(t.s, cycle) }

func (t *shardTick) Update(cycle int64) { t.n.shardUpdate(t.s, cycle) }

// shardEval runs one cycle of shard s's routers and endpoints. Reads are
// confined to committed lane state (any shard's) and shard-local mutables;
// writes are confined to shard-owned lanes and exchange wires.
func (n *Network) shardEval(s int, cycle int64) {
	st := &n.shards[s]
	for _, r := range st.routers {
		r.eval(cycle)
	}
	for _, ep := range st.eps {
		ep.eval(cycle)
	}
}

// shardUpdate commits shard s: drain inbound exchange wires into the lanes
// this shard owns, then publish every owned lane, exactly as the serial
// netTick's Update does for the whole fabric.
func (n *Network) shardUpdate(s int, cycle int64) {
	st := &n.shards[s]
	for _, w := range st.wires {
		if w.n > 0 {
			w.drain()
		}
	}
	for _, q := range st.qs {
		q.commit()
	}
	for _, r := range st.routers {
		r.clearFreed()
	}
	for _, ep := range st.eps {
		if !ep.recvQ.Quiescent() {
			ep.recvQ.Update(cycle)
		}
	}
}

// resolveTransits is the serial merge point for completed packet journeys:
// it runs with every shard quiesced, at the group's horizon barrier, and
// resolves each ejected packet against its source endpoint's lifecycle
// map in fixed shard order, then hands the record to OnTransit.
func (n *Network) resolveTransits(cycle int64) {
	for s := range n.shards {
		st := &n.shards[s]
		for i := range st.transits {
			tr := &st.transits[i]
			rec := TransitRecord{
				Pkt:        tr.pkt,
				EjectCycle: tr.eject,
				Hops:       int(tr.hops),
			}
			if src := n.eps[tr.pkt.Src]; src != nil {
				tm := src.times[tr.pkt.ID]
				rec.QueuedCycle = tm.queued
				rec.InjectCycle = tm.injected
				delete(src.times, tr.pkt.ID)
			}
			n.OnTransit(rec)
			tr.pkt = nil
		}
		st.transits = st.transits[:0]
	}
}

// --- Topology partition defaults ---

// meshShards assigns a W x H grid's routers to contiguous rectangular
// blocks — quadrants when shards is 4 and the grid is square. The shard
// count factors into gx x gy bands with the larger factor along the longer
// grid dimension, so block perimeters (the cross-shard cut) stay small.
func meshShards(shards, W, H int) []int {
	a := 1
	for d := 1; d*d <= shards; d++ {
		if shards%d == 0 {
			a = d
		}
	}
	b := shards / a // a <= b
	gx, gy := b, a
	if H > W {
		gx, gy = a, b
	}
	out := make([]int, W*H)
	for y := 0; y < H; y++ {
		for x := 0; x < W; x++ {
			out[y*W+x] = (y * gy / H * gx) + x*gx/W
		}
	}
	return out
}

// arcShards assigns a ring's N routers to contiguous arcs.
func arcShards(shards, N int) []int {
	out := make([]int, N)
	for i := range out {
		out[i] = i * shards / N
	}
	return out
}
