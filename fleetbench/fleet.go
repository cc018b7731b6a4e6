package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/artstore"
	"repro/internal/dtnsim"
	"repro/internal/router"
	"repro/internal/service"
	"repro/internal/stgraph"
)

// fleet is one started serving tier: psn-router in front of two
// psn-serve replicas on loopback TCP, started the way the fleet test
// harness starts it, plus the replica each routed backend name maps to.
type fleet struct {
	tf       *router.TestFleet
	replicas map[string]*router.FleetReplica // by X-Psn-Backend name
}

// startFleet boots a fleet (from the artifact store when dir is set)
// and sends the warm requests through the router. The replicas get
// fresh dataset registries, so set-up covers trace generation, artifact
// load or graph build, enumerator and sweep construction. Each warm
// response is returned for the output check.
func startFleet(storeDir string, warm []*request) (*fleet, []*reply, error) {
	tf, err := router.StartTestFleet(router.FleetConfig{Service: service.Config{ArtifactDir: storeDir}})
	if err != nil {
		return nil, nil, err
	}
	f := &fleet{tf: tf, replicas: make(map[string]*router.FleetReplica)}
	for _, rep := range tf.Replicas {
		f.replicas[rep.Addr] = rep
	}
	c := newClient(nil)
	defer c.close()
	replies := make([]*reply, len(warm))
	for i, r := range warm {
		rp := c.do(tf.URL, r, uint64(i))
		if rp.err != nil || rp.status/100 != 2 {
			f.close()
			return nil, nil, fmt.Errorf("warm request %s %s: status %d: %v", r.method(), r.path, rp.status, rp.err)
		}
		rp.body = bytes.Clone(rp.body)
		replies[i] = rp
	}
	return f, replies, nil
}

func (f *fleet) close() { f.tf.Close() }

// scrape reads the Prometheus text of url+"/metrics" into a map keyed
// by series (name plus labels).
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// fleetCounters sums the counters the per-layer report and the
// determinism check read, over the router and every replica.
type fleetCounters struct {
	cacheHits, cacheMisses   float64
	rejected                 float64
	failovers, shed          float64
	artifactLoads, artBuilds float64
}

func (f *fleet) counters() (fleetCounters, error) {
	var c fleetCounters
	rm, err := scrape(f.tf.URL)
	if err != nil {
		return c, err
	}
	c.failovers = rm["psn_router_failovers_total"]
	for _, reason := range []string{"capacity", "no_backend", "deadline"} {
		c.shed += rm[`psn_router_shed_total{reason="`+reason+`"}`]
	}
	for _, rep := range f.tf.Replicas {
		m, err := scrape("http://" + rep.Addr)
		if err != nil {
			return c, err
		}
		c.cacheHits += m["psn_result_cache_hits_total"]
		c.cacheMisses += m["psn_result_cache_misses_total"]
		c.rejected += m["psn_rejected_total"]
		for _, k := range []string{"graph", "oracle"} {
			c.artifactLoads += m[`psn_artifact_loads_total{kind="`+k+`"}`]
			c.artBuilds += m[`psn_artifact_builds_total{kind="`+k+`"}`]
		}
	}
	return c, nil
}

func (c fleetCounters) sub(o fleetCounters) fleetCounters {
	return fleetCounters{
		cacheHits: c.cacheHits - o.cacheHits, cacheMisses: c.cacheMisses - o.cacheMisses,
		rejected: c.rejected - o.rejected, failovers: c.failovers - o.failovers, shed: c.shed - o.shed,
		artifactLoads: c.artifactLoads - o.artifactLoads, artBuilds: c.artBuilds - o.artBuilds,
	}
}

// writeStore runs the psn-warm deploy path for one dataset: the oracle
// tables and the default-delta graph into an artifact store at dir. It
// returns the total file size in bytes.
func writeStore(dir, dataset string) (int64, error) {
	tr, err := service.NewRegistry().Trace(dataset)
	if err != nil {
		return 0, err
	}
	st := &artstore.Store{Dir: dir}
	digest := artstore.TraceDigest(tr)
	op, err := st.SaveOracle(dataset, digest, dtnsim.NewOracle(tr))
	if err != nil {
		return 0, err
	}
	g, err := stgraph.New(tr, stgraph.DefaultDelta)
	if err != nil {
		return 0, err
	}
	gp, err := st.SaveGraph(dataset, digest, g)
	if err != nil {
		return 0, err
	}
	var size int64
	for _, p := range []string{op, gp} {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		size += fi.Size()
	}
	return size, nil
}

// settle returns freed memory to the OS between set-ups, so one fleet's
// garbage does not inflate the next one's set-up time or peak RSS.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// resetPeakRSS restarts the kernel's peak-RSS watermark (VmHWM), so the
// peak read after the measured window belongs to that window. It is a
// no-op where /proc/self/clear_refs is unavailable.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// scratchDir returns a fresh per-process directory under .bench_build.
func scratchDir(what string) (string, error) {
	dir := filepath.Join(".bench_build", fmt.Sprintf("%s-%d", what, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
