package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"gonoc/internal/obs"
	"gonoc/internal/obs/metrics"
	"gonoc/internal/scenario"
	"gonoc/internal/sim"
)

// simWorkload is a workload whose op is one seeded simulation: each
// input is a scenario document, lowered to the layer's config C, then
// built and run. fig1-soc and mesh-rig-knee are both of this shape and
// differ only in these fields; the timed loop, the traced run and the
// reports are written once, below.
type simWorkload[C any] struct {
	name   string
	inputs int // distinct seeds per run, cycled through while timing
	// doc is one input's scenario document; scale shrinks it for the
	// self test.
	doc       func(seed int64, scale float64) []byte
	lowerName string // the Scenario method lower calls
	lower     func(*scenario.Scenario) (C, error)
	// run builds and runs one input and checks its outputs.
	run func(cfg C, opt options, t *tracer, parent, req uint64, probe obs.Probe) (simOut, error)
	// outputs counts the router output ports of the inputs' fabric,
	// for workloads whose run cannot reach the routers (nil otherwise).
	outputs func(C) float64

	// What each measurement is, for the readable report.
	setupNote, runNote, opNote, txnNote, p99Note, overheadNote string
}

// simOut is what one op yields.
type simOut struct {
	setup  time.Duration // host time the caller pays outside the simulation loop
	run    time.Duration // the simulation call
	op     time.Duration // the whole op as its caller sees it
	mem    memCount      // allocations made inside the simulation call
	txns   int           // simulated transactions, the allocs_per_op divisor
	p99    float64       // simulated p99 transaction latency, cycles
	digest string
	counts layerCounts
	keep   any // what the op built, held until the next op starts
}

type simInput[C any] struct {
	doc []byte
	cfg C
}

// lowerDoc decodes, fingerprints and lowers one document.
func (w *simWorkload[C]) lowerDoc(doc []byte, t *tracer, parent, req uint64) (C, error) {
	var cfg C
	sc, err := decode(doc, t, parent, req)
	if err != nil {
		return cfg, err
	}
	sp := t.begin("scenario."+w.lowerName, parent, req)
	cfg, err = w.lower(sc)
	t.end(sp)
	return cfg, err
}

func (w *simWorkload[C]) makeInputs(opt options) ([]simInput[C], error) {
	rng := sim.NewRNG(opt.seed)
	ins := make([]simInput[C], w.inputs)
	for i := range ins {
		doc := w.doc(rng.Int63(), opt.scale)
		cfg, err := w.lowerDoc(doc, nil, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
		ins[i] = simInput[C]{doc: doc, cfg: cfg}
	}
	return ins, nil
}

// simTally is what one timed phase measured.
type simTally struct {
	setups, runs, ops samples // ms per op; failed ops are +Inf in runs and ops
	mem               memCount
	txns, okOps       int
	okCycles          float64     // simulated cycles of the ops that passed
	all, first        layerCounts // over every op / over the first pass through the inputs
	firstP99          float64     // sum of the first pass's p99 latencies
	wall              time.Duration
	keep              any
}

// phase runs ops for seconds, and at least once through the inputs.
// With a tracer it also lowers each document inside the op, under
// spans, and attaches a fabric collector whose counts are checked
// against the layers' own statistics.
func (w *simWorkload[C]) phase(r *report, ins []simInput[C], opt options, seconds float64, t *tracer, seen replay) *simTally {
	s := &simTally{}
	start := time.Now()
	forPhase(len(ins), seconds, func(i, k int) {
		s.keep = nil // let the previous system go before the next build
		req := uint64(i + 1)
		root := t.begin("nocperf.op", 0, req)
		cfg, err := ins[k].cfg, error(nil)
		var reg *metrics.Registry
		var probe obs.Probe
		if t != nil {
			reg = metrics.NewRegistry()
			probe = metrics.NewFabricCollector(reg)
			cfg, err = w.lowerDoc(ins[k].doc, t, root.spanID(), req)
		}
		var out simOut
		if err == nil {
			out, err = w.run(cfg, opt, t, root.spanID(), req, probe)
		}
		t.end(root)
		if err == nil {
			err = seen.check(k, out.digest)
		}
		if err == nil && reg != nil {
			err = checkCollector(reg, &out.counts)
		}
		r.op(err)
		s.keep = out.keep
		s.setups = append(s.setups, ms(out.setup))
		s.runs = append(s.runs, latency(out.run, err))
		s.ops = append(s.ops, latency(out.op, err))
		s.mem = s.mem.add(out.mem)
		s.txns += out.txns
		s.all.addCounts(&out.counts)
		s.all.hostNS += float64(out.run.Nanoseconds())
		if err == nil {
			s.okOps++
			s.okCycles += out.counts.cycles
		}
		if i < len(ins) {
			s.first.addCounts(&out.counts)
			s.firstP99 += out.p99
		}
	})
	s.wall = time.Since(start)
	s.all.overheadMS = s.setups
	return s
}

// measure is the workload's entry point: an untraced run reporting the
// end-to-end metrics, or a traced run reporting the per-layer ones.
func (w *simWorkload[C]) measure(opt options) (*report, error) {
	r := newReport(w.name)
	ins, err := w.makeInputs(opt)
	if err != nil {
		return nil, err
	}
	seen := replay{}
	if opt.trace {
		return r, w.traced(r, ins, opt, seen)
	}
	s := w.phase(r, ins, opt, opt.seconds, nil, seen)
	heap := heapLiveMB()
	runtime.KeepAlive(s.keep)

	r.set("setup_s", s.setups.median()/1e3, "s", "host", fmt.Sprintf("median of %d %s", len(s.setups), w.setupNote))
	r.setLatency("run", s.runs, w.runNote)
	r.setLatency("op", s.ops, w.opNote)
	r.set("ops_per_s", float64(s.okOps)/s.wall.Seconds(), "1/s", "host", fmt.Sprintf("%d checked simulations in %.2f s", s.okOps, s.wall.Seconds()))
	r.set("sim_cycles_per_s", ratio(s.okCycles, s.runs.okSum()/1e3), "1/s", "host",
		fmt.Sprintf("%.0f simulated cycles / host time in the simulation call", s.okCycles))
	r.setAllocs(s.mem, s.txns, w.txnNote)
	r.set("heap_live_mb", heap, "MB", "host", "live heap after GC at the end of the timed phase, with what the last op built still held")
	r.set("sim_cycles", s.first.cycles, "cycles", "simulated", fmt.Sprintf("sum over the %d inputs of seed %d", len(ins), opt.seed))
	r.set("lat_p99_cycles", s.firstP99/float64(len(ins)), "cycles", "simulated", fmt.Sprintf("mean over the %d inputs of %s", len(ins), w.p99Note))
	r.linef("digest seed=%d %s", opt.seed, digestOf(seen))
	return r, nil
}

// traced is the per-layer run: an untraced phase for the host-time
// bases, then a traced phase with spans, profiles and the fabric
// collector attached, each for half the run's seconds. The counts come
// from the first traced pass over the inputs, so they repeat exactly
// for a seed.
func (w *simWorkload[C]) traced(r *report, ins []simInput[C], opt options, seen replay) error {
	base := w.phase(r, ins, opt, opt.seconds/2, nil, seen)
	t := newTracer()
	prof, err := startProfile(opt.outDir, fmt.Sprintf("nocperf-%s-seed%d", w.name, opt.seed))
	if err != nil {
		return err
	}
	tr := w.phase(r, ins, opt, opt.seconds/2, t, seen)
	if err := prof.stop(r); err != nil {
		return err
	}
	lc := tr.first
	if w.outputs != nil {
		lc.outputs = w.outputs(ins[0].cfg)
	}
	r.set("trace.overhead_frac", ratio(tr.ops.okMean(), base.ops.okMean())-1, "ratio", "host",
		fmt.Sprintf("traced / untraced mean %s (%d and %d ops), minus 1", w.opNote, len(tr.ops), len(base.ops)))
	lc.set(r, &base.all, w.overheadNote)
	r.setServerCounts(0, 0, "no server on this workload")
	docs := make([][]byte, len(ins))
	for i, in := range ins {
		docs[i] = in.doc
	}
	lower := func(sc *scenario.Scenario) error { _, err := w.lower(sc); return err }
	r.linef("digest seed=%d %s", opt.seed, digestOf(seen))
	return r.finishLayers(t, opt, docs, lower, w.lowerName)
}

// decode runs scenario.Load and Fingerprint, the front half every
// scenario consumer (CLI or server) pays.
func decode(doc []byte, t *tracer, parent, req uint64) (*scenario.Scenario, error) {
	sp := t.begin("scenario.Load", parent, req)
	sc, err := scenario.Load(bytes.NewReader(doc))
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin("scenario.Fingerprint", parent, req)
	_, err = sc.Fingerprint()
	t.end(sp)
	return sc, err
}

// replay checks a repeated input against its first run's digest.
type replay map[int]string

func (rp replay) check(i int, digest string) error {
	if first, ok := rp[i]; ok && first != digest {
		return fmt.Errorf("input %d replayed with digest %s, first run gave %s", i, digest, first)
	}
	rp[i] = digest
	return nil
}

// digestOf folds per-input digests into one per-seed digest.
func digestOf(rp replay) string {
	keys := make([]int, 0, len(rp))
	for k := range rp {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%d=%s\n", k, rp[k])
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil)[:16])
}

// checkCollector cross-checks the fabric collector's event counts with
// the layers' own statistics and adopts the counts only it has.
func checkCollector(reg *metrics.Registry, c *layerCounts) error {
	tot := collectorTotals(reg)
	var errs []error
	if got := tot["noc_fabric_flits_total"]; got != c.flits {
		errs = append(errs, fmt.Errorf("collector saw %v flits, the layers counted %v", got, c.flits))
	}
	in, ej := tot["noc_fabric_pkts_injected_total"], tot["noc_fabric_pkts_ejected_total"]
	if in != ej {
		errs = append(errs, fmt.Errorf("%v packets injected but %v ejected after the drain", in, ej))
	}
	if c.packets == 0 {
		c.packets = ej // traffic.Run keeps its fabric's packet count private
	} else if ej != c.packets {
		errs = append(errs, fmt.Errorf("collector saw %v ejections, the fabric counted %v", ej, c.packets))
	}
	if got := tot["noc_niu_txn_completed_total"]; got != c.niuCompleted {
		errs = append(errs, fmt.Errorf("collector saw %v NIU completions, the NIUs counted %v", got, c.niuCompleted))
	}
	c.stalls = tot["noc_fabric_stalls_total"]
	return errors.Join(errs...)
}
