package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/artstore"
	"repro/internal/dtnsim"
	"repro/internal/engine"
	"repro/internal/pathenum"
	"repro/internal/service"
	"repro/internal/stgraph"
	"repro/internal/trace"
)

// span is one timed call of the traced pass: a request's root span and
// one child per call into a layer, all tagged with the request's
// sequence index. Times are nanoseconds since the pass began.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span; -1 for a root
	Req    int    `json:"req"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(name string, parent, req int, start time.Time, d time.Duration) int {
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + d.Nanoseconds(), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span i now.
func (t *tracer) end(i int) {
	e := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = e
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers are the benchmark's own instances of the library layers, built
// from a freshly generated trace, which the traced run calls directly.
type layers struct {
	tr     *trace.Trace
	g      *stgraph.Graph
	sweep  *dtnsim.Sweep
	mu     sync.Mutex
	enums  map[[2]int]*pathenum.Enumerator // by (K, Workers)
	enumNs time.Duration                   // time spent constructing enumerators
}

// enumerator returns the enumerator for budget k with the given worker
// count (0: GOMAXPROCS, the replicas' default; 1: serial).
func (l *layers) enumerator(k, workers int) (*pathenum.Enumerator, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	key := [2]int{k, workers}
	if e, ok := l.enums[key]; ok {
		return e, nil
	}
	t0 := time.Now()
	e, err := pathenum.NewEnumeratorWithGraph(l.tr, l.g, pathenum.Options{K: k, Workers: workers})
	l.enumNs += time.Since(t0)
	if err != nil {
		return nil, err
	}
	l.enums[key] = e
	return e, nil
}

// simulate replays a /simulate request on the benchmark's own sweep,
// run by run exactly as Server.Simulate does.
func (l *layers) simulate(sr *service.SimulateRequest) (*dtnsim.Result, error) {
	alg, ok := service.AlgorithmByName(sr.Algorithm)
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %q", sr.Algorithm)
	}
	runs := make([]*dtnsim.Result, max(sr.Runs, 1))
	for i := range runs {
		msgs := dtnsim.Workload(l.tr, sr.Rate, l.tr.Horizon*2/3, engine.DeriveSeed(sr.Seed, i))
		res, err := l.sweep.Run(dtnsim.Config{Algorithm: alg, Messages: msgs})
		if err != nil {
			return nil, err
		}
		runs[i] = res
	}
	return dtnsim.Merge(runs...), nil
}

// core calls the compute layer behind r on the benchmark's own
// instances: pathenum for an enumeration, dtnsim for a simulation.
func (l *layers) core(r *request) error {
	switch r.kind {
	case kindEnumerate:
		e, err := l.enumerator(r.enum.K, 0)
		if err != nil {
			return err
		}
		_, err = e.EnumerateAll(libMessages(r.enum))
		return err
	case kindSimulate:
		_, err := l.simulate(r.sim)
		return err
	}
	return nil
}

// probeSetup builds the benchmark's own layer instances, timing each
// layer's set-up, and loads the artifact store at storeDir back.
func probeSetup(rep *report, dataset, storeDir string) (*layers, error) {
	t0 := time.Now()
	tr, err := service.NewRegistry().Trace(dataset)
	if err != nil {
		return nil, err
	}
	rep.set("tracegen.generate_ms", ms(time.Since(t0)), "ms")
	if sh := shapes[dataset]; tr.NumNodes != sh.nodes || tr.Horizon != sh.horizon {
		return nil, fmt.Errorf("%s: trace has %d nodes over %g s, generator assumes %d over %g",
			dataset, tr.NumNodes, tr.Horizon, sh.nodes, sh.horizon)
	}

	t0 = time.Now()
	g, err := stgraph.New(tr, stgraph.DefaultDelta)
	if err != nil {
		return nil, err
	}
	rep.set("stgraph.build_ms", ms(time.Since(t0)), "ms")
	rep.set("stgraph.frames", float64(g.NumFrames()), "count")

	st := &artstore.Store{Dir: storeDir}
	digest := artstore.TraceDigest(tr)
	t0 = time.Now()
	if _, err := st.LoadGraph(dataset, stgraph.DefaultDelta, digest); err != nil {
		return nil, fmt.Errorf("artifact graph: %w", err)
	}
	rep.set("artstore.load_graph_ms", ms(time.Since(t0)), "ms")
	t0 = time.Now()
	if _, err := st.LoadOracle(dataset, digest, tr); err != nil {
		return nil, fmt.Errorf("artifact oracle: %w", err)
	}
	rep.set("artstore.load_oracle_ms", ms(time.Since(t0)), "ms")

	t0 = time.Now()
	sw, err := dtnsim.NewSweep(tr)
	if err != nil {
		return nil, err
	}
	rep.set("dtnsim.sweep_setup_ms", ms(time.Since(t0)), "ms")
	return &layers{tr: tr, g: g, sweep: sw, enums: make(map[[2]int]*pathenum.Enumerator)}, nil
}

// tracedReq is what the traced pass keeps of one request, in ms.
type tracedReq struct {
	kind      kind
	routed    float64 // routed call: the request's latency
	routedHit float64 // routed call at cache-hit state (miss workloads repeat it)
	direct    float64 // the same call straight to the serving replica
	handler   float64 // the replica handler in-process, at hit state
	lib       float64 // Server.Enumerate / Server.Simulate
	marsh     float64 // json.Marshal of the library response
	core      float64 // pathenum or dtnsim on the benchmark's own instances
	kb        float64 // response size
	libPath   bool    // the request reached the library (enumerate/simulate)
	ok, bad   bool
	digest    [32]byte // of the library body, for the untraced pass's check
	cnt       counts   // the library response's work counts
}

// counts are the work counts that must repeat exactly at one seed.
// Inputs identifies the requests they were counted over.
type counts struct {
	Inputs         string  `json:"inputs"`
	Requests       int     `json:"requests"`
	Messages       int     `json:"pathenum_messages"`
	Arrivals       int     `json:"pathenum_arrivals"`
	Exploded       int     `json:"pathenum_exploded"`
	Exhausted      int     `json:"pathenum_exhausted"`
	SimMessages    int     `json:"dtnsim_messages"`
	SimDelivered   int     `json:"dtnsim_delivered"`
	Transmissions  int     `json:"dtnsim_transmissions"`
	CacheHits      float64 `json:"cache_hits"`
	CacheMisses    float64 `json:"cache_misses"`
	ArtifactLoads  float64 `json:"artifact_loads"`
	ArtifactBuilds float64 `json:"artifact_builds"`
}

func (c *counts) add(o counts) {
	c.Messages += o.Messages
	c.Arrivals += o.Arrivals
	c.Exploded += o.Exploded
	c.Exhausted += o.Exhausted
	c.SimMessages += o.SimMessages
	c.SimDelivered += o.SimDelivered
	c.Transmissions += o.Transmissions
}

// addEnumerate counts an enumeration response's messages, arrivals and
// explosion outcomes.
func (c *counts) addEnumerate(lr *libResult) {
	if lr.enum != nil {
		for _, res := range lr.enum.Results {
			c.Messages++
			c.Arrivals += len(res.Arrivals)
			if res.Exploded {
				c.Exploded++
			}
			if res.Exhausted {
				c.Exhausted++
			}
		}
	}
}

// addSim counts a simulation's messages, deliveries and transmissions.
func (c *counts) addSim(res *dtnsim.Result) {
	c.SimMessages += len(res.Outcomes)
	for _, o := range res.Outcomes {
		if o.Delivered {
			c.SimDelivered++
		}
	}
	c.Transmissions += res.Transmissions
}

// traceRun is the per-layer run. Pass A replays the first traceN
// requests untraced on a fresh fleet (the reference latency and the
// fleet counters); pass B replays them on another fresh fleet with a
// span around every call into a layer; pass C probes allocations and
// serial against parallel enumeration one call at a time.
func traceRun(opt options) (*report, error) {
	w := opt.w
	warm, next := w.newGen(opt.seed)
	rep := newReport()
	storeDir, err := scratchDir("store")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(storeDir)
	size, err := writeStore(storeDir, w.dataset)
	if err != nil {
		return nil, err
	}
	rep.set("artstore.file_mb", float64(size)/(1<<20), "MiB")
	fleetStore := ""
	if w.store {
		fleetStore = storeDir
	}
	lay, err := probeSetup(rep, w.dataset, storeDir)
	if err != nil {
		return nil, err
	}
	n := w.traceN
	cnt := counts{Inputs: inputsDigest(warm, next, n), Requests: n}

	// Pass A: untraced.
	fa, _, err := startFleet(fleetStore, warm)
	if err != nil {
		return nil, err
	}
	c0, err := fa.counters()
	if err != nil {
		fa.close()
		return nil, err
	}
	la := (&loop{url: fa.tf.URL, conns: opt.conns, next: next, wrap: opt.wrap}).run(func(i int) bool { return i < n })
	c1, err := fa.counters()
	fa.close()
	if err != nil {
		return nil, err
	}
	settle()
	dc := c1.sub(c0)
	cnt.CacheHits, cnt.CacheMisses = dc.cacheHits, dc.cacheMisses
	cnt.ArtifactLoads, cnt.ArtifactBuilds = c1.artifactLoads, c1.artBuilds

	// Pass B: traced.
	fb, replies, err := startFleet(fleetStore, warm)
	if err != nil {
		return nil, err
	}
	defer fb.close()
	_, warmBad, err := checkWarm(fb, warm, replies)
	if err != nil {
		return nil, err
	}
	tr := &tracer{t0: time.Now()}
	recs := make([]tracedReq, n)
	var firstErr error
	var errOnce sync.Once
	drive(opt.conns, opt.wrap, func(i int) bool { return i < n }, func(_ int, cl *client, i int) {
		if err := traceOne(fb, lay, tr, cl, w.hot, next(i), i, &recs[i]); err != nil {
			errOnce.Do(func() { firstErr = err })
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	for i := range recs {
		cnt.add(recs[i].cnt)
	}

	// The untraced pass's bodies against the library bodies of pass B.
	failed := warmBad + la.failures()
	for _, s := range la.samples {
		if s.ok && recs[s.idx].ok && s.miss.sum != recs[s.idx].digest {
			failed++
		}
	}
	for i := range recs {
		if !recs[i].ok || recs[i].bad {
			failed++
		}
	}

	sim, err := probeSequential(rep, fb, lay, newClient(opt.wrap), w, next, n)
	if err != nil {
		return nil, err
	}
	cnt.add(sim)
	reportLayers(rep, w, la, recs, dc, cnt)
	rep.set("trace.spans", float64(len(tr.spans)), "count")
	if err := tr.write(filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, opt.seed))); err != nil {
		return nil, err
	}
	consistent, err := checkCounts(w.name, opt.seed, cnt)
	if err != nil {
		return nil, err
	}
	rep.Attempted = 2 * n
	rep.Failed = failed
	rep.Correct = failed == 0 && consistent
	return rep, nil
}

// inputsDigest is the SHA-256 of the warm requests and the first n of
// the sequence, in hex.
func inputsDigest(warm []*request, next func(int) *request, n int) string {
	h := sha256.New()
	for _, r := range warm {
		fmt.Fprintf(h, "%s %s\n", r.path, r.body)
	}
	for i := 0; i < n; i++ {
		r := next(i)
		fmt.Fprintf(h, "%s %s\n", r.path, r.body)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// traceOne runs request r (sequence index i) through every traced call
// and records the timings in rec.
func traceOne(f *fleet, lay *layers, tr *tracer, cl *client, hot bool, r *request, i int, rec *tracedReq) error {
	t0 := time.Now()
	root := tr.add("request", -1, i, t0, 0)
	id := uint64(i) << 2

	rp := cl.do(f.tf.URL, r, id)
	tr.add("router.call", root, i, t0, rp.lat)
	rec.routed, rec.routedHit = ms(rp.lat), ms(rp.lat)
	rec.ok = rp.ok()
	rec.kb = float64(len(rp.body)) / 1024
	if !rec.ok {
		return nil
	}
	body := bytes.Clone(rp.body)
	backend := rp.backend
	rs := f.replicas[backend]
	if rs == nil {
		rec.ok = false
		return nil
	}
	// Every further call must serve the same bytes as the routed one.
	same := func(rp *reply) {
		if !rp.ok() || !bytes.Equal(rp.body, body) {
			rec.bad = true
		}
	}
	if !hot {
		// The routed call above missed the result cache and a direct
		// call now would hit it: repeat the routed call, so the hop is
		// the difference of two hits.
		t := time.Now()
		rp = cl.do(f.tf.URL, r, id|1)
		tr.add("router.call_hit", root, i, t, rp.lat)
		rec.routedHit = ms(rp.lat)
		same(rp)
	}
	t := time.Now()
	dp := cl.do("http://"+rs.Addr, r, id|2)
	tr.add("replica.call", root, i, t, dp.lat)
	rec.direct = ms(dp.lat)
	same(dp)

	req := httptest.NewRequest(r.method(), r.path, bytes.NewReader(r.body))
	rr := httptest.NewRecorder()
	t = time.Now()
	rs.Server.ServeHTTP(rr, req)
	d := time.Since(t)
	tr.add("service.handler", root, i, t, d)
	rec.handler = ms(d)
	same(&reply{status: rr.Code, body: rr.Body.Bytes()})

	t = time.Now()
	lr, err := library(rs.Server, r)
	if err != nil {
		return err
	}
	tr.add("service.library", root, i, t, lr.callDur)
	tr.add("service.marshal", root, i, t.Add(lr.callDur), lr.marshDur)
	rec.kind = r.kind
	rec.bad = rec.bad || !bytes.Equal(body, lr.body)
	rec.digest = sha256.Sum256(lr.body)
	rec.cnt.addEnumerate(lr)
	if r.kind == kindFigures {
		tr.end(root)
		return nil
	}
	rec.libPath = true
	rec.lib, rec.marsh = ms(lr.callDur), ms(lr.marshDur)

	t = time.Now()
	if err := lay.core(r); err != nil {
		return err
	}
	d = time.Since(t)
	name := "pathenum.enumerate_all"
	if r.kind == kindSimulate {
		name = "dtnsim.run"
	}
	tr.add(name, root, i, t, d)
	rec.core = ms(d)
	tr.end(root)
	return nil
}

// mallocs returns the process's cumulative heap object and byte counts.
func mallocs() (objs, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// probeSequential measures, one call at a time on an otherwise idle
// fleet, the allocations per request of the router hop and the replica
// handler, serial against default-parallel enumeration, and the
// simulator's replay.
// It returns the work counts of the simulations it replays: the
// workload's own, or epidemic probes at the city rate for a mix without
// simulations.
func probeSequential(rep *report, f *fleet, lay *layers, cl *client, w *workload, next func(int) *request, n int) (counts, error) {
	var cnt counts
	defer cl.close()
	var routedA, directA, handlerA float64
	calls := 0
	for i := 0; i < min(w.probeN, n); i++ {
		r := next(i)
		rp := cl.do(f.tf.URL, r, 0) // every request of the prefix is cached by now
		rs := f.replicas[rp.backend]
		if !rp.ok() || rs == nil {
			return cnt, fmt.Errorf("probe call %d: status %d from %q: %v", i, rp.status, rp.backend, rp.err)
		}
		m0, _ := mallocs()
		routed := cl.do(f.tf.URL, r, 0)
		m1, _ := mallocs()
		direct := cl.do("http://"+rs.Addr, r, 0)
		m2, _ := mallocs()
		rs.Server.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(r.method(), r.path, bytes.NewReader(r.body)))
		m3, _ := mallocs()
		if !routed.ok() || !direct.ok() {
			return cnt, fmt.Errorf("probe call %d: routed status %d, direct status %d", i, routed.status, direct.status)
		}
		routedA += float64(m1 - m0)
		directA += float64(m2 - m1)
		handlerA += float64(m3 - m2)
		calls++
	}
	rep.set("router.allocs_per_req", ratio(routedA-directA, float64(calls)), "count")
	rep.set("service.allocs_per_req", ratio(handlerA, float64(calls)), "count")

	// Serial against parallel enumeration of the same messages, in
	// alternating order, plus the bytes the serial runs allocate.
	var par, ser []float64
	var allocBytes float64
	msgs := 0
	probes := 0
	for i := 0; probes < w.probeN && i < 64*w.probeN; i++ {
		r := next(i)
		if r.kind != kindEnumerate {
			continue
		}
		probes++
		pe, err := lay.enumerator(r.enum.K, 0)
		if err != nil {
			return cnt, err
		}
		se, err := lay.enumerator(r.enum.K, 1)
		if err != nil {
			return cnt, err
		}
		m := libMessages(r.enum)
		timeIt := func(e *pathenum.Enumerator) (float64, uint64, error) {
			_, b0 := mallocs()
			t := time.Now()
			_, err := e.EnumerateAll(m)
			d := time.Since(t)
			_, b1 := mallocs()
			return ms(d), b1 - b0, err
		}
		var p, s float64
		var b uint64
		if probes%2 == 0 {
			p, _, err = timeIt(pe)
			if err == nil {
				s, b, err = timeIt(se)
			}
		} else {
			s, b, err = timeIt(se)
			if err == nil {
				p, _, err = timeIt(pe)
			}
		}
		if err != nil {
			return cnt, err
		}
		par, ser = append(par, p), append(ser, s)
		allocBytes += float64(b)
		msgs += len(m)
	}
	rep.set("pathenum.serial_ms_p50", median(ser), "ms")
	rep.set("pathenum.parallel_speedup", ratio(sum(ser), sum(par)), "x")
	rep.set("pathenum.alloc_mb_per_msg", ratio(allocBytes/(1<<20), float64(msgs)), "MiB")
	rep.set("pathenum.setup_ms", ms(lay.enumNs), "ms")

	// The simulator's replay, sequentially; workloads without
	// simulations in their mix probe epidemic runs at the city rate.
	var runs []float64
	var sims []*request
	for i := 0; len(sims) < w.probeN && i < 64*w.probeN; i++ {
		if r := next(i); r.kind == kindSimulate {
			sims = append(sims, r)
		}
	}
	if len(sims) == 0 {
		for i := 0; i < w.probeN; i++ {
			sims = append(sims, simulateRequest(w.dataset, cityRate, 1+int64(i)))
		}
	}
	for _, r := range sims {
		t := time.Now()
		res, err := lay.simulate(r.sim)
		if err != nil {
			return cnt, err
		}
		runs = append(runs, ms(time.Since(t)))
		cnt.addSim(res)
	}
	rep.set("dtnsim.run_ms_p50", median(runs), "ms")
	return cnt, nil
}

// reportLayers turns the traced pass into per-layer metrics: per-call
// percentiles, the work counts, and each layer's self time with the
// remainder no layer accounts for. Self times pair like with like: the
// router hop is a routed hit minus a direct hit; the service is the
// in-process handler plus, on a miss, the library call's own time
// outside the compute layer and the marshal; pathenum and dtnsim are the
// compute calls, on the request's path only when it misses the cache.
func reportLayers(rep *report, w *workload, la loopResult, recs []tracedReq, dc fleetCounters, cnt counts) {
	var hop, replica, lib, marsh, kb, enum, latT []float64
	self := map[string]float64{}
	var routed float64
	for _, r := range recs {
		latT = append(latT, r.routed)
		hop = append(hop, r.routedHit-r.direct)
		replica = append(replica, r.direct)
		kb = append(kb, r.kb)
		if r.libPath {
			lib = append(lib, r.lib)
			marsh = append(marsh, r.marsh)
		}
		if r.kind == kindEnumerate {
			enum = append(enum, r.core)
		}
		routed += r.routed
		router := max(r.routedHit-r.direct, 0)
		service := r.handler
		var core float64
		if !w.hot && r.libPath {
			core = r.core
			service += max(r.lib-r.core, 0) + r.marsh
			if r.kind == kindEnumerate {
				self["pathenum"] += core
			} else {
				self["dtnsim"] += core
			}
		}
		self["router"] += router
		self["service"] += service
		self["unattributed"] += r.routed - router - service - core
	}
	rep.set("router.hop_ms_p50", median(hop), "ms")
	rep.set("router.failovers", dc.failovers, "count")
	rep.set("router.shed", dc.shed, "count")
	rep.set("service.replica_ms_p50", median(replica), "ms")
	rep.set("service.library_ms_p50", median(lib), "ms")
	rep.set("service.marshal_ms_p50", median(marsh), "ms")
	rep.set("service.response_kb_p50", median(kb), "KiB")
	rep.set("service.cache_hit_ratio", ratio(dc.cacheHits, dc.cacheHits+dc.cacheMisses), "ratio")
	rep.set("service.cache_hits", dc.cacheHits, "count")
	rep.set("service.cache_misses", dc.cacheMisses, "count")
	rep.set("service.rejected", dc.rejected, "count")
	rep.set("pathenum.enumerate_ms_p50", quantile(enum, 0.5), "ms")
	rep.set("pathenum.enumerate_ms_p90", quantile(enum, 0.9), "ms")
	rep.set("pathenum.arrivals_per_msg", ratio(float64(cnt.Arrivals), float64(cnt.Messages)), "count")
	rep.set("pathenum.exploded_ratio", ratio(float64(cnt.Exploded), float64(cnt.Messages)), "ratio")
	rep.set("pathenum.exhausted_ratio", ratio(float64(cnt.Exhausted), float64(cnt.Messages)), "ratio")
	rep.set("dtnsim.transmissions_per_msg", ratio(float64(cnt.Transmissions), float64(cnt.SimMessages)), "count")
	rep.set("dtnsim.delivered_ratio", ratio(float64(cnt.SimDelivered), float64(cnt.SimMessages)), "ratio")
	rep.set("artstore.loads", cnt.ArtifactLoads, "count")
	rep.set("artstore.builds", cnt.ArtifactBuilds, "count")
	for _, layer := range []string{"router", "service", "pathenum", "dtnsim", "unattributed"} {
		rep.set(layer+".self_ms", self[layer]/float64(len(recs)), "ms")
		rep.set(layer+".self_share", ratio(self[layer], routed), "ratio")
	}
	latA := la.latencies()
	rep.set("trace.untraced_p50_ms", median(latA), "ms")
	rep.set("trace.traced_p50_ms", median(latT), "ms")
	rep.set("trace.overhead_ratio", ratio(median(latT), median(latA)), "x")
	rep.set("client.latency_p99_ms", quantile(latA, 0.99), "ms")
	rep.set("client.samples", float64(len(latA)), "count")
}
