// Command fleetbench is the repository benchmark: it starts psn-router
// in front of two psn-serve replicas in-process on loopback TCP, drives
// one workload closed-loop through the router, checks every response
// against the direct library result, and prints every metric by name
// and unit, ending with one JSON object on the last line.
//
//	fleetbench --workload fleet-hot --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 replays a fixed
// prefix of the same request sequence with spans around the calls into
// each layer's public functions and reports the per-layer metrics.
// See README.md for the workloads, the metrics and the noise observed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// A run sets the fleet up at least minSetups times and until the set-ups
// took setupBudget in all (at most maxSetups times); setup_s is the
// median.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 1500 * time.Millisecond
)

type options struct {
	w       *workload
	seed    int64
	seconds int
	procs   int // GOMAXPROCS, capped at 2
	conns   int // closed-loop connections, capped at procs
	wrap    func(http.RoundTripper) http.RoundTripper
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fleet-hot, conference-explosion or city-solo")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 24, "measured seconds (--trace 0)")
	traced := fs.Int("trace", 0, "1: per-layer traced run instead of the end-to-end measurement")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintf(stderr, "fleetbench: need --workload (fleet-hot, conference-explosion, city-solo), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	opt := options{w: w, seed: *seed, seconds: *seconds, procs: procs, conns: min(w.conns, procs)}
	fmt.Fprintf(stdout, "workload %s dataset %s seed %d conns %d nproc %d GOMAXPROCS %d %s\n",
		w.name, w.dataset, opt.seed, opt.conns, runtime.NumCPU(), procs, runtime.Version())

	var rep *report
	var err error
	if *traced == 1 {
		rep, err = traceRun(opt)
	} else {
		rep, err = measure(opt)
	}
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 1
	}
	rep.print(stdout)
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line plus the metric order for the listing.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
}

func newReport() *report { return &report{Correct: true, Metrics: make(map[string]metric)} }

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) print(w io.Writer) {
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-34s %16.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %v\n", r.Attempted, r.Failed, r.Correct)
	line, _ := json.Marshal(r)
	fmt.Fprintf(w, "%s\n", line)
}

// setUp starts the fleet repeatedly, timing each from the start of the
// fleet to the last warm reply, and keeps the last one. It returns the
// fleet, the warm replies and the median set-up seconds.
func setUp(storeDir string, warm []*request) (*fleet, []*reply, float64, error) {
	var (
		f       *fleet
		replies []*reply
		times   []float64
		total   time.Duration
	)
	for len(times) < minSetups || (total < setupBudget && len(times) < maxSetups) {
		if f != nil {
			f.close()
			f = nil
			settle()
		}
		t0 := time.Now()
		var err error
		f, replies, err = startFleet(storeDir, warm)
		if err != nil {
			return nil, nil, 0, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
	}
	return f, replies, median(times), nil
}

// checkWarm compares each warm reply byte for byte with the library
// result for the same request and returns the expected bodies by
// request plus the number of mismatches.
func checkWarm(f *fleet, warm []*request, replies []*reply) (map[*request][]byte, int, error) {
	expect := make(map[*request][]byte, len(warm))
	bad := 0
	for i, r := range warm {
		rep := f.replicas[replies[i].backend]
		if rep == nil {
			return nil, 0, fmt.Errorf("warm reply from unknown backend %q", replies[i].backend)
		}
		lr, err := library(rep.Server, r)
		if err != nil {
			return nil, 0, err
		}
		expect[r] = lr.body
		if string(lr.body) != string(replies[i].body) {
			bad++
		}
	}
	return expect, bad, nil
}

// prepareStore writes the artifact store a store-backed workload's
// replicas boot from; it returns "" for the others, and a cleanup.
func prepareStore(w *workload) (string, func(), error) {
	if !w.store {
		return "", func() {}, nil
	}
	dir, err := scratchDir("store")
	if err != nil {
		return "", nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	if _, err := writeStore(dir, w.dataset); err != nil {
		cleanup()
		return "", nil, err
	}
	return dir, cleanup, nil
}

// measure is the end-to-end run: set-up, a closed loop for the given
// seconds with tracing off, then the output check.
func measure(opt options) (*report, error) {
	w := opt.w
	warm, next := w.newGen(opt.seed)
	storeDir, cleanup, err := prepareStore(w)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	f, replies, setupS, err := setUp(storeDir, warm)
	if err != nil {
		return nil, err
	}
	defer f.close()
	expect, warmBad, err := checkWarm(f, warm, replies)
	if err != nil {
		return nil, err
	}
	if !w.hot {
		expect = nil
	}

	settle()
	resetPeakRSS()
	l := &loop{url: f.tf.URL, conns: opt.conns, next: next, expect: expect, wrap: opt.wrap}
	deadline := time.Now().Add(time.Duration(opt.seconds) * time.Second)
	lr := l.run(func(int) bool { return time.Now().Before(deadline) })
	peak := peakRSSMB()

	failed := lr.failures() + warmBad
	if !w.hot {
		bad, err := checkDigests(f, next, lr.samples, opt.procs)
		if err != nil {
			return nil, err
		}
		failed += bad
	}
	n := len(lr.samples)
	if n == 0 {
		return nil, fmt.Errorf("no request completed in %d s", opt.seconds)
	}
	lat := lr.latencies()
	rep := newReport()
	rep.Attempted = n + len(warm)
	rep.Failed = failed
	rep.Correct = failed == 0
	rep.set("setup_s", setupS, "s")
	rep.set("throughput_rps", float64(n)/lr.elapsed.Seconds(), "1/s")
	rep.set("latency_p50_ms", quantile(lat, 0.5), "ms")
	rep.set("latency_p90_ms", quantile(lat, 0.9), "ms")
	rep.set("cpu_ms_per_req", ms(lr.cpu)/float64(n), "ms")
	rep.set("peak_rss_mb", peak, "MiB")
	return rep, nil
}
