package main

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"testing"
)

// corrupter flips one byte in the middle of the first response body and
// of every every-th one after it, on its way to the benchmark client.
type corrupter struct {
	rt    http.RoundTripper
	every int64
	n     atomic.Int64
	hits  *atomic.Int64
}

func (c *corrupter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.rt.RoundTrip(req)
	if err != nil || (c.n.Add(1)-1)%c.every != 0 {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if len(body) > 0 {
		body[len(body)/2] ^= 0x01
		c.hits.Add(1)
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

func corrupting(every int64, hits *atomic.Int64) func(http.RoundTripper) http.RoundTripper {
	return func(rt http.RoundTripper) http.RoundTripper {
		return &corrupter{rt: rt, every: every, hits: hits}
	}
}

// devMiss is a miss workload on the small dev trace: unique paper-K
// enumerations, so the digest check runs on cheap requests.
var devMiss = &workload{name: "dev-miss", dataset: "dev", conns: 1, traceN: 8, probeN: 2, newGen: conferenceGen("dev")}

func testOptions(w *workload, wrap func(http.RoundTripper) http.RoundTripper) options {
	procs := min(runtime.NumCPU(), 2)
	return options{w: w, seed: 7, seconds: 1, procs: procs, conns: min(w.conns, procs), wrap: wrap}
}

func TestCleanRunsPass(t *testing.T) {
	for _, w := range []*workload{workloads[0], devMiss} {
		rep, err := measure(testOptions(w, nil))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed; want a clean run", w.name, rep.Correct, rep.Failed, rep.Attempted)
		}
	}
}

// TestCorruptedBodyIsCaught damages bodies in flight: the byte comparison
// (hot workload) and the digest check (miss workload) must both count
// every damaged body as a failed operation.
func TestCorruptedBodyIsCaught(t *testing.T) {
	for _, w := range []*workload{workloads[0], devMiss} {
		var hits atomic.Int64
		rep, err := measure(testOptions(w, corrupting(5, &hits)))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if hits.Load() == 0 {
			t.Fatalf("%s: no body was corrupted", w.name)
		}
		if rep.Correct || int64(rep.Failed) != hits.Load() {
			t.Errorf("%s: correct %v with %d failed; want incorrect with %d failed", w.name, rep.Correct, rep.Failed, hits.Load())
		}
	}
}

func TestTracedRunCountsRepeat(t *testing.T) {
	t.Chdir(t.TempDir())
	for i := 0; i < 2; i++ {
		rep, err := traceRun(testOptions(devMiss, nil))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Fatalf("traced run %d: correct %v, %d failed", i, rep.Correct, rep.Failed)
		}
		for _, name := range []string{"router.hop_ms_p50", "pathenum.enumerate_ms_p50", "service.cache_hit_ratio", "trace.spans"} {
			if _, ok := rep.Metrics[name]; !ok {
				t.Errorf("traced run %d lacks %s", i, name)
			}
		}
	}
}

func TestCountsMismatchFails(t *testing.T) {
	t.Chdir(t.TempDir())
	c := counts{Inputs: "abc", Requests: 3, Arrivals: 10}
	if ok, err := checkCounts("w", 1, c); !ok || err != nil {
		t.Fatalf("first run: ok %v, err %v", ok, err)
	}
	if ok, err := checkCounts("w", 1, c); !ok || err != nil {
		t.Fatalf("same counts: ok %v, err %v", ok, err)
	}
	c.Arrivals++
	if ok, err := checkCounts("w", 1, c); ok || err != nil {
		t.Fatalf("changed counts: ok %v, err %v; want a failure", ok, err)
	}
}
