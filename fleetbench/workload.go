package main

import (
	"encoding/json"
	"math"
	mathrand "math/rand/v2"
	"sync"

	"repro/internal/engine"
	"repro/internal/service"
)

// kind is the endpoint a request targets.
type kind int

const (
	kindEnumerate kind = iota
	kindSimulate
	kindFigures
)

// request is one generated HTTP request plus its decoded form, which
// the output check and the traced run replay against the library.
type request struct {
	kind kind
	path string // URL path; GET when body is nil, POST otherwise
	body []byte
	enum *service.EnumerateRequest
	sim  *service.SimulateRequest
}

func (r *request) method() string {
	if r.body == nil {
		return "GET"
	}
	return "POST"
}

func enumerateRequest(dataset string, k int, msgs []service.MessageJSON) *request {
	er := &service.EnumerateRequest{Dataset: dataset, K: k}
	if len(msgs) == 1 {
		m := msgs[0]
		er.Src, er.Dst, er.Start = &m.Src, &m.Dst, &m.Start
	} else {
		er.Messages = msgs
	}
	return &request{kind: kindEnumerate, path: "/enumerate", body: mustJSON(er), enum: er}
}

func simulateRequest(dataset string, rate float64, seed int64) *request {
	sr := &service.SimulateRequest{Dataset: dataset, Algorithm: "Epidemic", Rate: rate, Runs: 1, Seed: seed}
	return &request{kind: kindSimulate, path: "/simulate", body: mustJSON(sr), sim: sr}
}

func figuresRequest() *request { return &request{kind: kindFigures, path: "/figures"} }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs always marshal
	}
	return b
}

// workload is one traffic mix. Its inputs are a pure function of the
// seed: warm holds the requests sent during set-up, and the sequence
// is what the closed loop walks in order. A hot workload's sequence
// draws from warm (every request a result-cache hit); a miss workload
// generates unique requests, none of them in warm.
type workload struct {
	name    string
	dataset string
	conns   int  // closed-loop connections, capped at GOMAXPROCS
	hot     bool // sequence repeats the warm pool
	store   bool // replicas start from an on-disk artifact store

	// traceN is the fixed request count of the traced run, so its work
	// counts repeat exactly at one seed; probeN bounds each of the
	// sequential layer probes (allocations, serial vs parallel
	// enumeration, simulator replays).
	traceN int
	probeN int

	// newGen returns the seeded generator: warm requests, and the i-th
	// request of the sequence for i = 0, 1, 2, ... in order.
	newGen func(seed int64) (warm []*request, next func(i int) *request)
}

var workloads = []*workload{
	{
		name:    "fleet-hot",
		dataset: "dev",
		conns:   2,
		hot:     true,
		traceN:  6000,
		probeN:  400,
		newGen:  hotGen("dev"),
	},
	{
		name:    "conference-explosion",
		dataset: "conext-9-12",
		conns:   2,
		traceN:  60,
		probeN:  12,
		newGen:  conferenceGen("conext-9-12"),
	},
	{
		name:    "city-solo",
		dataset: "city-2k",
		conns:   1,
		store:   true,
		traceN:  24,
		probeN:  6,
		newGen:  cityGen("city-2k"),
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// Dataset shapes the generators draw from (node count, trace horizon in
// seconds). Messages start in the first two thirds of the horizon, the
// paper's message-generation window.
type shape struct {
	nodes   int
	horizon float64
}

var shapes = map[string]shape{
	"dev":         {24, 1800},
	"conext-9-12": {98, 10800},
	"city-2k":     {2000, 43200},
}

// picker draws messages by stratified sampling: sources, destinations
// and starts each walk a seeded permutation of equal strata of their
// range (node indices; the generation window) and take a uniform point
// inside the stratum, an integral second for starts. Any long prefix
// then covers every part of each range about equally — city-2k gives
// its node classes contiguous index ranges — which keeps the cost of a
// run steady from seed to seed while each seed still draws different
// messages.
type picker struct {
	rng               *mathrand.Rand
	sh                shape
	srcs, dsts, slots []int
}

// strata is the number of equal strata of each range.
const strata = 64

func newPicker(seed int64, stream uint64, sh shape) *picker {
	return &picker{rng: mathrand.New(mathrand.NewPCG(uint64(seed), stream)), sh: sh}
}

// draw returns a point of [0, span) from the next stratum of the walk
// perm, starting a fresh permutation when the current one is used up.
func (p *picker) draw(perm *[]int, span float64) float64 {
	if len(*perm) == 0 {
		*perm = p.rng.Perm(strata)
	}
	j := (*perm)[0]
	*perm = (*perm)[1:]
	return (float64(j) + p.rng.Float64()) * span / strata
}

func (p *picker) node(perm *[]int) int { return int(p.draw(perm, float64(p.sh.nodes))) }

// batch draws n messages sharing one source and start, with distinct
// destinations: n = 1 is a single message, n = 8 the shared-prefix
// batch shape of the paper's per-source sweeps.
func (p *picker) batch(n int) []service.MessageJSON {
	src := p.node(&p.srcs)
	start := math.Floor(p.draw(&p.slots, p.sh.horizon*2/3))
	seen := map[int]bool{src: true}
	msgs := make([]service.MessageJSON, 0, n)
	for len(msgs) < n {
		d := p.node(&p.dsts)
		if seen[d] {
			continue
		}
		seen[d] = true
		msgs = append(msgs, service.MessageJSON{Src: src, Dst: d, Start: start})
	}
	return msgs
}

// Warm requests of the miss workloads build every artifact a dataset's
// requests need — the trace, the space-time graph, the simulator's
// sweep — at a budget small enough that set-up time does not depend on
// which message the seed drew. (An enumerator for another budget is a
// constant-time wrapper of the shared graph.)
const (
	warmK    = 1
	warmRate = 0.001
)

// hotK keeps the fleet-hot bodies small, so the serving envelope rather
// than the response size sets the cost of a cache hit.
const hotK = 20

// hotGen builds a pool of 12 requests: single and 8-message enumerations,
// epidemic simulations and the figure listing. The sequence picks from
// the pool by a hash of (seed, index), so any prefix is reproducible.
func hotGen(dataset string) func(seed int64) ([]*request, func(int) *request) {
	return func(seed int64) ([]*request, func(int) *request) {
		p := newPicker(seed, 0x686f74, shapes[dataset])
		var pool []*request
		for i := 0; i < 6; i++ {
			pool = append(pool, enumerateRequest(dataset, hotK, p.batch(1)))
		}
		for i := 0; i < 2; i++ {
			pool = append(pool, enumerateRequest(dataset, hotK, p.batch(8)))
		}
		for i := 0; i < 3; i++ {
			pool = append(pool, simulateRequest(dataset, 0.05, 1+p.rng.Int64N(1<<30)))
		}
		pool = append(pool, figuresRequest())
		next := func(i int) *request {
			return pool[uint64(engine.DeriveSeed(seed, i))%uint64(len(pool))]
		}
		return pool, next
	}
}

// uniqueSeq hands out generated requests in index order, regenerating
// any whose body repeats an earlier one, so every request of a miss
// workload is a distinct result-cache key.
type uniqueSeq struct {
	mu   sync.Mutex
	gen  func() *request
	seen map[string]bool
	seq  []*request
}

func (u *uniqueSeq) at(i int) *request {
	u.mu.Lock()
	defer u.mu.Unlock()
	for len(u.seq) <= i {
		r := u.gen()
		if !u.seen[string(r.body)] {
			u.seen[string(r.body)] = true
			u.seq = append(u.seq, r)
		}
	}
	return u.seq[i]
}

func newUniqueSeq(warm []*request, gen func() *request) *uniqueSeq {
	u := &uniqueSeq{gen: gen, seen: make(map[string]bool)}
	for _, r := range warm {
		u.seen[string(r.body)] = true
	}
	return u
}

// conferenceGen sends unique single messages at the paper's K. Mixing
// in 8-destination batches, which cost seven times a single on average,
// left a run with a few hundred requests at most: its p90 moved by a
// quarter from seed to seed, and its peak RSS followed the number of
// responses the unfilled result cache held. Singles give about five
// times as many requests a run, and fill the cache early.
func conferenceGen(dataset string) func(seed int64) ([]*request, func(int) *request) {
	return func(seed int64) ([]*request, func(int) *request) {
		p := newPicker(seed, 0x636f6e66, shapes[dataset])
		warm := []*request{enumerateRequest(dataset, warmK, p.batch(1))}
		u := newUniqueSeq(warm, func() *request {
			return enumerateRequest(dataset, 0, p.batch(1))
		})
		return warm, u.at
	}
}

// cityK is the city-solo enumeration budget. Wide-mode tables at the
// paper's K=2000 take seconds per message on 2000 nodes, and at K=200
// single-message cost still spans 21-623 ms (deciles): a run held too
// few enumerations for a steady throughput or p90 (a quarter's spread
// from seed to seed). At K=50 the deciles are 4-109 ms.
const cityK = 50

// cityRate is the epidemic message rate of city-solo simulations.
const cityRate = 0.02

// cityGen sends two simulations, each under its own workload seed, for
// every single-message enumeration. Simulation latency clusters tightly
// while enumeration latency spreads widely below it; with the two in
// equal numbers the median request fell on the boundary between the
// classes and jumped between them from run to run (a quarter's spread),
// while a two-thirds simulation majority puts the median and the p90
// inside the cluster.
func cityGen(dataset string) func(seed int64) ([]*request, func(int) *request) {
	return func(seed int64) ([]*request, func(int) *request) {
		p := newPicker(seed, 0x63697479, shapes[dataset])
		warm := []*request{
			enumerateRequest(dataset, warmK, p.batch(1)),
			simulateRequest(dataset, warmRate, 1),
		}
		n := 0
		u := newUniqueSeq(warm, func() *request {
			n++
			if n%3 == 1 {
				return enumerateRequest(dataset, cityK, p.batch(1))
			}
			return simulateRequest(dataset, cityRate, 1+p.rng.Int64N(1<<40))
		})
		return warm, u.at
	}
}
