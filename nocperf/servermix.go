package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"gonoc/internal/scenario"
	"gonoc/internal/server"
	"gonoc/internal/sim"
	"gonoc/internal/soc"
	"gonoc/internal/stats"
)

// server-mix: an in-process server.New behind a loopback listener,
// driven by closed-loop clients that each wait for a reply before
// sending the next document, the way CLI and CI callers do. The two
// paths of the service are measured in separate slices, so neither
// figure depends on how often callers hit the cache: in a cold slice
// every client submits fresh seeds of the cpu-dma-display built-in
// (cold runs, followed on their progress stream and fetched); in the
// hit slice after it they resubmit documents the server has cached. A
// round is one cold slice and one hit slice, with timed server
// start-ups between rounds so setup_s samples the whole run.
const (
	serverClients   = 2 // one per core of the reference host
	serverRound     = 2 * time.Second
	serverColdShare = 0.75         // of a round's time; cold runs are ~200x slower than hits
	serverRecent    = 16           // hits repeat one of the client's 16 most recent cold documents
	serverSample    = 4            // cold documents per client checked against in-process execution
	serverMinOps    = serverSample // per client and slice, so the first cold slice yields the sample
	serverWarmups   = 5            // untimed start-ups that warm the process first
	serverSetups    = 7            // timed start-ups between rounds
	serverFamily    = "cpu-dma-display"
)

// serverDoc is the cold-family document for one seed.
func serverDoc(seed int64, scale float64) ([]byte, error) {
	sc, ok := scenario.Get(serverFamily)
	if !ok {
		return nil, fmt.Errorf("built-in scenario %q is missing", serverFamily)
	}
	sc.Seed = seed
	sc.Measure.Measure = max(100, int64(float64(sc.Measure.Measure)*scale))
	return sc.Canonical()
}

// coldDoc is one document a client submitted fresh.
type coldDoc struct {
	doc    []byte
	sum    [32]byte // of the cold result bytes
	result []byte   // kept for the sampled documents only
	final  progressLine
}

// progressLine is the part of a run's last progress line the benchmark
// reads: simulated cycles and kernel events, and the run's fabric
// collector counters.
type progressLine struct {
	Cycles  float64            `json:"cycles"`
	Events  float64            `json:"events"`
	Metrics map[string]float64 `json:"metrics"`
}

// mixClient is one closed-loop caller.
type mixClient struct {
	id   int
	n    int // ops so far, for request ids
	base string
	http *http.Client
	rng  *sim.RNG
	t    *tracer
	opt  options

	hits, colds samples // ms per submission
	// Only the documents hits draw from and the checked sample are
	// kept, so the benchmark's own state does not grow the live heap.
	recent, sampled []*coldDoc
	coldCycles      float64 // simulated cycles of every cold run
	errs            []error
	attempted       int
	rejected        int
	resultBytes     int
}

// slice submits cold or hit documents until the deadline, and at least
// serverMinOps of them.
func (c *mixClient) slice(cold bool, deadline time.Time) {
	for i := 0; i < serverMinOps || time.Now().Before(deadline); i++ {
		c.n++
		c.attempted++
		req := uint64(c.id)<<32 | uint64(c.n)
		root := c.t.begin("nocperf.op", 0, req)
		var err error
		if cold {
			err = c.cold(root.spanID(), req)
		} else {
			err = c.hit(root.spanID(), req)
		}
		c.t.end(root)
		if err != nil {
			c.errs = append(c.errs, fmt.Errorf("client %d op %d: %w", c.id, c.n, err))
		}
	}
}

// hit resubmits one of the client's recent documents and checks that
// the answer is the cold run's bytes.
func (c *mixClient) hit(parent, req uint64) error {
	if len(c.recent) == 0 {
		return errors.New("no cached document to resubmit")
	}
	d := c.recent[c.rng.Intn(len(c.recent))]
	t0 := time.Now()
	body, err := c.submitHit(d.doc, parent, req)
	lat := time.Since(t0)
	if err == nil {
		if c.opt.faults.corruptHits && len(body) > 0 {
			body[len(body)/2] ^= 1
		}
		if sha256.Sum256(body) != d.sum {
			err = errors.New("cache hit returned different bytes than the cold run")
		}
	}
	c.hits = append(c.hits, latency(lat, err))
	return err
}

// cold submits a fresh seed and keeps what later hits and checks need.
func (c *mixClient) cold(parent, req uint64) error {
	doc, err := serverDoc(c.rng.Int63(), c.opt.scale)
	if err != nil {
		return err
	}
	t0 := time.Now()
	body, final, err := c.submitCold(doc, parent, req)
	lat := latency(time.Since(t0), err)
	c.colds = append(c.colds, lat)
	if err != nil {
		return err
	}
	d := &coldDoc{doc: doc, sum: sha256.Sum256(body), final: final}
	if len(c.sampled) < serverSample {
		d.result = body
		c.sampled = append(c.sampled, d)
	} else {
		d.final.Metrics = nil
	}
	if len(c.recent) == serverRecent {
		c.recent = append(c.recent[:0], c.recent[1:]...)
	}
	c.recent = append(c.recent, d)
	c.coldCycles += final.Cycles
	c.resultBytes += len(body)
	return nil
}

func (c *mixClient) post(doc []byte, parent, req uint64) (*http.Response, []byte, error) {
	sp := c.t.begin("server.submit", parent, req)
	defer c.t.end(sp)
	resp, err := c.http.Post(c.base+"/v1/runs", "application/json", bytes.NewReader(doc))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

func (c *mixClient) get(name, path string, parent, req uint64) (*http.Response, []byte, error) {
	sp := c.t.begin(name, parent, req)
	defer c.t.end(sp)
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

func (c *mixClient) submitHit(doc []byte, parent, req uint64) ([]byte, error) {
	resp, body, err := c.post(doc, parent, req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		c.rejected++
		return nil, fmt.Errorf("repeat submission answered %d X-Cache=%q, want a cache hit", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	return body, nil
}

// submitCold posts a new document, follows its progress stream to the
// terminal line, and fetches the result.
func (c *mixClient) submitCold(doc []byte, parent, req uint64) ([]byte, progressLine, error) {
	var final progressLine
	resp, body, err := c.post(doc, parent, req)
	if err != nil {
		return nil, final, err
	}
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Cache") != "miss" {
		c.rejected++
		return nil, final, fmt.Errorf("new document answered %d X-Cache=%q, want 202 miss: %s", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
	var st struct {
		ID          string `json:"id"`
		ProgressURL string `json:"progress_url"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, final, fmt.Errorf("status document: %w", err)
	}
	resp, body, err = c.get("server.progress", st.ProgressURL, parent, req)
	if err != nil {
		return nil, final, err
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if resp.StatusCode != http.StatusOK || len(lines) == 0 {
		return nil, final, fmt.Errorf("progress stream answered %d", resp.StatusCode)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil {
		return nil, final, fmt.Errorf("progress line: %w", err)
	}
	resp, body, err = c.get("server.result", "/v1/runs/"+st.ID+"/result", parent, req)
	if err != nil {
		return nil, final, err
	}
	if resp.StatusCode != http.StatusOK {
		c.rejected++
		return nil, final, fmt.Errorf("result answered %d: %s", resp.StatusCode, body)
	}
	return body, final, nil
}

// mixServer is one running server instance with its loopback listener.
type mixServer struct {
	srv *server.Server
	ts  *httptest.Server
}

// startServer brings a server up and waits for /healthz, returning how
// long that took.
func startServer() (*mixServer, time.Duration, error) {
	t0 := time.Now()
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	m := &mixServer{srv, ts}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/healthz answered %d", resp.StatusCode)
		}
	}
	d := time.Since(t0)
	if err != nil {
		m.stop()
		return nil, 0, err
	}
	return m, d, nil
}

func (m *mixServer) stop() error {
	m.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return m.srv.Shutdown(ctx)
}

// mixPhase is one timed phase: rounds of a cold slice and a hit slice
// on one server, with start-ups of throwaway servers timed between
// rounds.
type mixPhase struct {
	clients           []*mixClient
	setups            samples // ms per start-up
	coldWall, hitWall time.Duration
	coldMem, hitMem   memCount
	heapMB            float64
}

func runPhase(opt options, seconds float64, t *tracer) (*mixPhase, error) {
	m, _, err := startServer()
	if err != nil {
		return nil, err
	}
	p := &mixPhase{}
	for i := 0; i < serverClients; i++ {
		p.clients = append(p.clients, &mixClient{
			id: i, base: m.ts.URL, http: m.ts.Client(), t: t, opt: opt,
			rng: sim.NewRNG(opt.seed).Fork(fmt.Sprintf("client%d", i)),
		})
	}
	rounds := max(1, int(seconds/serverRound.Seconds()+0.5))
	round := seconds / float64(rounds)
	for range rounds {
		// Start-ups too run on a collected heap, not beside the GC
		// that the last hit slice's garbage would start.
		runtime.GC()
		for range serverSetups {
			s, d, err := startServer()
			if err != nil {
				m.stop()
				return nil, err
			}
			p.setups = append(p.setups, ms(d))
			if err := s.stop(); err != nil {
				m.stop()
				return nil, err
			}
		}
		wall, mem := p.slice(true, round*serverColdShare)
		p.coldWall, p.coldMem = p.coldWall+wall, p.coldMem.add(mem)
		wall, mem = p.slice(false, round*(1-serverColdShare))
		p.hitWall, p.hitMem = p.hitWall+wall, p.hitMem.add(mem)
	}
	p.heapMB = heapLiveMB()
	if err := m.stop(); err != nil {
		return nil, fmt.Errorf("server shutdown: %w", err)
	}
	return p, nil
}

// slice runs every client on one path for seconds, and returns how
// long that took and what it allocated. It starts from a fresh
// collection, so the other path's garbage is not collected on this
// path's time.
func (p *mixPhase) slice(cold bool, seconds float64) (time.Duration, memCount) {
	var wg sync.WaitGroup
	runtime.GC()
	m0 := readMem()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for _, c := range p.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.slice(cold, deadline)
		}()
	}
	wg.Wait()
	return time.Since(start), readMem().sub(m0)
}

func (p *mixPhase) all(f func(*mixClient) samples) samples {
	var s samples
	for _, c := range p.clients {
		s = append(s, f(c)...)
	}
	return s
}

// tally counts every submission and failure into the report.
func (p *mixPhase) tally(r *report) {
	for _, c := range p.clients {
		r.attempted += c.attempted
		for _, err := range c.errs {
			r.fail(err)
		}
	}
}

// sample is the seeded sample of cold documents checked against an
// in-process run: the first serverSample of each client.
func (p *mixPhase) sample() []*coldDoc {
	var out []*coldDoc
	for _, c := range p.clients {
		out = append(out, c.sampled...)
	}
	return out
}

// sampleCheck is what in-process execution of the sampled documents
// yields.
type sampleCheck struct {
	execMS     samples // scenario.Execute host time per document
	cycles     float64
	p99        float64 // mean over documents of the worst master's p99
	mismatches float64
	digest     string
}

// checkSample re-executes each sampled document in process and compares
// the bytes with what the server returned: the structural form of "the
// CLI and the server print the same result".
func checkSample(r *report, docs []*coldDoc) sampleCheck {
	var sc sampleCheck
	h := sha256.New()
	for i, d := range docs {
		t0 := time.Now()
		s, err := scenario.Load(bytes.NewReader(d.doc))
		var rep *scenario.Report
		if err == nil {
			rep, err = scenario.Execute(s, nil)
		}
		// One entry per document, +Inf for a failed one.
		sc.execMS = append(sc.execMS, latency(time.Since(t0), err))
		var buf bytes.Buffer
		if err == nil {
			err = stats.WriteJSON(&buf, rep.Trans)
		}
		if err == nil && !bytes.Equal(buf.Bytes(), d.result) {
			err = fmt.Errorf("sampled document %d: server bytes differ from in-process scenario.Execute", i)
		}
		if err != nil {
			r.fail(err)
			continue
		}
		worst := int64(0)
		for _, m := range rep.Trans.PerMaster {
			worst = max(worst, m.Latency.P99)
			sc.mismatches += float64(m.Errors)
		}
		sc.p99 += float64(worst) / float64(len(docs))
		sc.cycles += d.final.Cycles
		h.Write(d.result)
	}
	sc.digest = fmt.Sprintf("sha256:%x", h.Sum(nil)[:16])
	return sc
}

func runServerMix(opt options) (*report, error) {
	r := newReport("server-mix")
	for range serverWarmups {
		m, _, err := startServer()
		if err != nil {
			return nil, err
		}
		if err := m.stop(); err != nil {
			return nil, err
		}
	}
	if opt.trace {
		return r, serverTraced(r, opt)
	}
	p, err := runPhase(opt, opt.seconds, nil)
	if err != nil {
		return nil, err
	}
	p.tally(r)
	sc := checkSample(r, p.sample())

	hits := p.all(func(c *mixClient) samples { return c.hits })
	colds := p.all(func(c *mixClient) samples { return c.colds })
	var coldCycles float64
	for _, c := range p.clients {
		coldCycles += c.coldCycles
	}
	r.set("setup_s", p.setups.median()/1e3, "s", "host",
		fmt.Sprintf("median of %d server.New + listener + first /healthz, %d between each round", len(p.setups), serverSetups))
	r.setLatency("run", colds, "cold submissions, POST to result bytes")
	r.setLatency("op", hits, "cache-hit submissions, POST to result bytes")
	r.set("ops_per_s", float64(hits.ok())/p.hitWall.Seconds(), "1/s", "host",
		fmt.Sprintf("%d checked cache hits from %d closed-loop clients in %.2f s of hit slices", hits.ok(), serverClients, p.hitWall.Seconds()))
	r.set("sim_cycles_per_s", ratio(coldCycles, colds.okSum()/1e3), "1/s", "host",
		fmt.Sprintf("%.0f simulated cycles of the cold runs / their submission latency", coldCycles))
	r.setAllocs(p.hitMem, len(hits), "cache-hit submissions, over the hit slices (server and client share the heap)")
	r.linef("cold path: %.0f allocs, %.0f B per cold submission over the cold slices; %.2f cold submissions/s",
		float64(p.coldMem.mallocs)/float64(max(1, len(colds))), float64(p.coldMem.bytes)/float64(max(1, len(colds))),
		float64(colds.ok())/p.coldWall.Seconds())
	r.set("heap_live_mb", p.heapMB, "MB", "host", "live heap after GC at the end of the timed phase, result cache included")
	r.set("sim_cycles", sc.cycles, "cycles", "simulated", fmt.Sprintf("sum over the %d sampled cold documents", len(sc.execMS)))
	r.set("lat_p99_cycles", sc.p99, "cycles", "simulated", "mean over the sampled documents of the worst master's p99 latency")
	r.linef("digest seed=%d %s", opt.seed, sc.digest)
	return r, nil
}

// serverTraced runs an untraced phase for the host-time bases and then
// a traced phase on a fresh server with the same schedule.
func serverTraced(r *report, opt options) error {
	half := opt.seconds / 2
	base, err := runPhase(opt, half, nil)
	if err != nil {
		return err
	}
	base.tally(r)
	docs := base.sample()
	sc := checkSample(r, docs)

	t := newTracer()
	prof, err := startProfile(opt.outDir, fmt.Sprintf("nocperf-%s-seed%d", r.workload, opt.seed))
	if err != nil {
		return err
	}
	traced, err := runPhase(opt, half, t)
	if err != nil {
		return err
	}
	if err := prof.stop(r); err != nil {
		return err
	}
	traced.tally(r)

	// Layer counts: the sampled documents' own counters, read from the
	// terminal line of each run's progress stream (the run's fabric
	// collector), over the same documents the in-process timings cover.
	var lc layerCounts
	for _, d := range traced.sample() {
		tot := map[string]float64{}
		for k, v := range d.final.Metrics {
			name, _, _ := strings.Cut(k, "{")
			tot[name] += v
		}
		lc.cycles += d.final.Cycles
		lc.events += d.final.Events
		lc.flits += tot["noc_fabric_flits_total"]
		lc.packets += tot["noc_fabric_pkts_ejected_total"]
		lc.stalls += tot["noc_fabric_stalls_total"]
		lc.niuIssued += tot["noc_niu_txn_issued_total"]
		lc.niuCompleted += tot["noc_niu_txn_completed_total"]
	}
	// The sampled documents are each client's first cold runs, made
	// while the process warms up, so the overhead is taken against
	// every cold run of the phase: each latency minus the sample's
	// median in-process time.
	colds := base.all(func(c *mixClient) samples { return c.colds })
	exec := sc.execMS.median()
	for _, l := range colds {
		lc.overheadMS = append(lc.overheadMS, l-exec)
	}
	lc.hostNS = sc.execMS.okSum() * 1e6
	lc.mismatches = sc.mismatches
	outputs, err := familyOutputs(opt)
	if err != nil {
		return err
	}
	lc.outputs = outputs
	lc.set(r, &lc, fmt.Sprintf("cold latency minus the median in-process scenario.Execute of %d sampled documents", len(sc.execMS)))

	tracedColds := traced.all(func(c *mixClient) samples { return c.colds })
	r.set("trace.overhead_frac", tracedColds.median()/colds.median()-1, "ratio", "host",
		fmt.Sprintf("traced / untraced median cold submission latency (%d and %d submissions), minus 1", len(tracedColds), len(colds)))
	resultBytes, rejected, submitted := 0, 0, 0
	for _, c := range base.clients {
		resultBytes += c.resultBytes
		rejected += c.rejected
		submitted += c.attempted
	}
	r.setServerCounts(float64(resultBytes)/1024/float64(max(1, len(colds))), float64(rejected),
		fmt.Sprintf("untraced phase, %d cold of %d submissions", len(colds), submitted))
	var sdocs [][]byte
	for _, d := range docs {
		sdocs = append(sdocs, d.doc)
	}
	lower := func(s *scenario.Scenario) error { _, err := s.TransConfig(); return err }
	r.linef("digest seed=%d %s", opt.seed, sc.digest)
	return r.finishLayers(t, opt, sdocs, lower, "TransConfig")
}

// familyOutputs counts the router output ports of the cold family's
// fabric.
func familyOutputs(opt options) (float64, error) {
	doc, err := serverDoc(1, opt.scale)
	if err != nil {
		return 0, err
	}
	s, err := scenario.Load(bytes.NewReader(doc))
	if err != nil {
		return 0, err
	}
	tc, err := s.TransConfig()
	if err != nil {
		return 0, err
	}
	sys := soc.BuildNoC(soc.Config{Quiet: true, Topology: tc.Topology, Wishbone: tc.Wishbone, Net: tc.Net})
	ports := 0
	for _, rt := range sys.Net.Routers() {
		ports += rt.Ports()
	}
	return float64(ports), nil
}
