package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// client sends workload requests to the stack over loopback HTTP, on at most
// conns keep-alive connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// sample is one request as the client saw it.
type sample struct {
	kind      int
	latency   time.Duration // sent → done line (or failure)
	ttfr      time.Duration // sent → first row line; 0 when no row came
	rows      int
	queueWait float64 // ms, from the done line
	err       error
}

// do sends one request, reads its whole answer stream and checks it.
func (c *client) do(ctx context.Context, kind int, path string, want *answer, ordered bool) sample {
	s := sample{kind: kind}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		s.err = err
		return s
	}
	sent := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		s.latency, s.err = time.Since(sent), err
		return s
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		s.latency = time.Since(sent)
		s.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, msg)
		return s
	}
	res := readStream(resp.Body, sent, want, ordered)
	s.latency, s.ttfr, s.rows, s.queueWait, s.err = res.done, res.firstRow, res.rows, res.queueWait, res.err
	if s.latency == 0 {
		s.latency = time.Since(sent)
	}
	return s
}

// closedLoop runs clients that each send their next request only after the
// previous one has been answered, taking requests in stream order from seq,
// until d has passed. Requests already sent when d passes are finished and
// kept. It returns every sample and the time from start to the last answer.
func closedLoop(ctx context.Context, c *client, w *workload, refs []*answer, seq *sequence, clients int, d time.Duration) ([]sample, time.Duration) {
	paths := make([]string, len(w.requests))
	for i, r := range w.requests {
		paths[i] = r.path()
	}
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := seq.take()
				per[i] = append(per[i], c.do(ctx, k, paths[k], refs[k], w.ordered))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}
