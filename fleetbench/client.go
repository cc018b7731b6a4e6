package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// client is one closed-loop caller: its own transport, so each client
// holds its own keep-alive connection to every host it calls.
type client struct {
	hc  *http.Client
	tr  *http.Transport
	buf bytes.Buffer
}

// newClient builds a client; wrap, when set, interposes on the
// transport (the self-test uses it to corrupt bodies in flight).
func newClient(wrap func(http.RoundTripper) http.RoundTripper) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}
	var rt http.RoundTripper = tr
	if wrap != nil {
		rt = wrap(tr)
	}
	return &client{hc: &http.Client{Transport: rt}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// reply is one response as the caller saw it. body aliases the client's
// buffer and is valid until the client's next call.
type reply struct {
	status  int
	err     error
	body    []byte
	backend string // X-Psn-Backend: the replica the router chose
	lat     time.Duration
}

func (rp *reply) ok() bool { return rp.err == nil && rp.status/100 == 2 }

// do sends r to base and reads the whole body. id becomes the request's
// X-Psn-Request header, which the router and replica adopt, so one ID
// names the request in both tiers and in the benchmark's spans.
func (c *client) do(base string, r *request, id uint64) *reply {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method(), base+r.path, body)
	if err != nil {
		return &reply{err: err}
	}
	req.Header.Set("X-Psn-Request", fmt.Sprintf("%016x", id))
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return &reply{err: err, lat: time.Since(t0)}
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return &reply{
		status:  resp.StatusCode,
		err:     err,
		body:    c.buf.Bytes(),
		backend: resp.Header.Get("X-Psn-Backend"),
		lat:     time.Since(t0),
	}
}

// sample is what the closed loop keeps of one request; it is kept small
// because a hot run holds a few hundred thousand of them.
type sample struct {
	lat  time.Duration
	idx  int32
	ok   bool      // transport success and a 2xx status
	bad  bool      // body differed from the expected bytes (hot workloads)
	miss *digested // body digest, for workloads checked after the pass
}

// digested is a body's SHA-256 and the replica that served it.
type digested struct {
	sum     [32]byte
	backend string
}

// loopResult is one closed-loop pass.
type loopResult struct {
	samples []sample
	elapsed time.Duration // first send to last completion
	cpu     time.Duration // process user+system CPU over the pass
}

// loop drives the closed loop: conns clients, each sending the next
// request of the sequence (a shared index) as soon as its previous one
// completes, until more reports false for the index it would send next.
// A hot workload's bodies are compared byte for byte with expect; any
// other workload's bodies are digested for the check after the pass.
type loop struct {
	url    string
	conns  int
	next   func(int) *request
	expect map[*request][]byte // nil: digest bodies instead
	wrap   func(http.RoundTripper) http.RoundTripper
}

func (l *loop) run(more func(i int) bool) loopResult {
	local := make([][]sample, l.conns)
	cpu0 := cpuTime()
	t0 := time.Now()
	drive(l.conns, l.wrap, more, func(c int, cl *client, i int) {
		r := l.next(i)
		rp := cl.do(l.url, r, uint64(i))
		s := sample{idx: int32(i), lat: rp.lat, ok: rp.ok()}
		if s.ok {
			if l.expect != nil {
				s.bad = !bytes.Equal(rp.body, l.expect[r])
			} else {
				s.miss = &digested{sum: sha256.Sum256(rp.body), backend: rp.backend}
			}
		}
		local[c] = append(local[c], s)
	})
	lr := loopResult{elapsed: time.Since(t0), cpu: cpuTime() - cpu0}
	for _, ss := range local {
		lr.samples = append(lr.samples, ss...)
	}
	return lr
}

// drive runs conns closed-loop callers, each with its own client, that
// take the next sequence index from a shared counter and call fn with
// it, until more reports false for the index a caller drew. It returns
// once every caller has stopped.
func drive(conns int, wrap func(http.RoundTripper) http.RoundTripper, more func(i int) bool, fn func(c int, cl *client, i int)) {
	var (
		idx atomic.Int64
		wg  sync.WaitGroup
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(wrap)
			defer cl.close()
			for {
				i := int(idx.Add(1) - 1)
				if !more(i) {
					return
				}
				fn(c, cl, i)
			}
		}()
	}
	wg.Wait()
}

// failures counts the samples that failed in flight or in the byte
// comparison (digest checks are counted separately, after the pass).
func (lr loopResult) failures() int {
	n := 0
	for _, s := range lr.samples {
		if !s.ok || s.bad {
			n++
		}
	}
	return n
}

func (lr loopResult) latencies() []float64 {
	out := make([]float64, len(lr.samples))
	for i, s := range lr.samples {
		out[i] = ms(s.lat)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
