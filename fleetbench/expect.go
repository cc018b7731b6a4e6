package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/figures"
	"repro/internal/pathenum"
	"repro/internal/service"
	"repro/internal/trace"
)

// libResult is the direct library computation behind one request: the
// exact bytes a replica must serve (the marshaled response plus the
// trailing newline every JSON response carries), the decoded response
// for the work counts, and how long the call and the marshal took.
type libResult struct {
	body     []byte
	enum     *service.EnumerateResponse
	sim      *service.SimulateResponse
	callDur  time.Duration
	marshDur time.Duration
}

// libMessages converts an enumerate request into library messages.
func libMessages(er *service.EnumerateRequest) []pathenum.Message {
	if len(er.Messages) == 0 {
		return []pathenum.Message{{Src: trace.NodeID(*er.Src), Dst: trace.NodeID(*er.Dst), Start: *er.Start}}
	}
	msgs := make([]pathenum.Message, len(er.Messages))
	for i, m := range er.Messages {
		msgs[i] = pathenum.Message{Src: trace.NodeID(m.Src), Dst: trace.NodeID(m.Dst), Start: m.Start}
	}
	return msgs
}

// library computes r through srv's exported library entry points
// (Server.Enumerate, Server.Simulate) or, for the figure listing, from
// the figure registry; srv is only read for the first two.
func library(srv *service.Server, r *request) (*libResult, error) {
	var (
		res  libResult
		resp any
		err  error
	)
	t0 := time.Now()
	switch r.kind {
	case kindEnumerate:
		res.enum, err = srv.Enumerate(r.enum.Dataset, libMessages(r.enum), pathenum.Options{K: r.enum.K})
		resp = res.enum
	case kindSimulate:
		res.sim, err = srv.Simulate(*r.sim)
		resp = res.sim
	case kindFigures:
		all := figures.All()
		fr := service.FiguresResponse{Figures: make([]service.FigureInfo, len(all))}
		for i, f := range all {
			fr.Figures[i] = service.FigureInfo{ID: f.ID, Title: f.Title}
		}
		resp = fr
	}
	res.callDur = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("library %s: %w", r.path, err)
	}
	t1 := time.Now()
	body, err := json.Marshal(resp)
	res.marshDur = time.Since(t1)
	if err != nil {
		return nil, err
	}
	res.body = append(body, '\n')
	return &res, nil
}

// checkDigests recomputes every successful sample's response through
// the library on the replica that served it, outside any timed window,
// and returns how many bodies differ. workers bound the concurrency.
func checkDigests(f *fleet, next func(int) *request, samples []sample, workers int) (mismatches int, err error) {
	var (
		bad      atomic.Int64
		firstErr error
		errOnce  sync.Once
		idx      atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(idx.Add(1) - 1)
				if i >= len(samples) {
					return
				}
				s := samples[i]
				if !s.ok {
					continue
				}
				rep := f.replicas[s.miss.backend]
				if rep == nil {
					bad.Add(1)
					continue
				}
				lr, err := library(rep.Server, next(int(s.idx)))
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				if sha256.Sum256(lr.body) != s.miss.sum {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(bad.Load()), firstErr
}
