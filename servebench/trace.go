package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"omega"
)

// tracedRounds is how many rounds of the seeded stream one traced pass
// covers. Every pass replays the same requests, so the engine's work
// counters summed over a pass must repeat exactly.
const tracedRounds = 2

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request share Req; Parent is -1 for the request.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
}

// spans records one request's spans.
type spans struct {
	base time.Time
	req  int
	list []span
}

func (s *spans) start(parent int, name string) int {
	id := len(s.list)
	s.list = append(s.list, span{Req: s.req, ID: id, Parent: parent, Name: name, Start: time.Since(s.base).Nanoseconds()})
	return id
}

func (s *spans) end(id int) { s.list[id].End = time.Since(s.base).Nanoseconds() }

// record is one traced request: how long each layer call took, what the
// execution counted, and whether every step's answer was correct.
type record struct {
	kind                                    int
	parse, prepare, open, ttfr, exec, drain time.Duration
	handler, http                           time.Duration
	rows                                    int
	join                                    bool // more than one conjunct
	stats                                   omega.Stats
	err                                     error
	spans                                   []span
}

// memWriter is an in-memory http.ResponseWriter for calling the server's
// handler without a connection.
type memWriter struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (m *memWriter) reset() {
	m.header, m.status = http.Header{}, 0
	m.buf.Reset()
}

func (m *memWriter) Header() http.Header { return m.header }

func (m *memWriter) WriteHeader(code int) {
	if m.status == 0 {
		m.status = code
	}
}

func (m *memWriter) Write(p []byte) (int, error) {
	m.WriteHeader(http.StatusOK)
	return m.buf.Write(p)
}

func (m *memWriter) Flush() {}

// tracedRequest calls each layer in turn for one request, in a span each:
// parse and Prepare; the plan-cache lookup, Exec and a drain of Rows.Next;
// the server's handler into memory; and the loopback HTTP request.
func tracedRequest(ctx context.Context, st *stack, c *client, w *workload, refs []*answer, k, id int, base time.Time, mw *memWriter) (rec record) {
	r := w.requests[k]
	rec.kind = k
	sp := spans{base: base, req: id}
	root := sp.start(-1, "request")
	defer func() {
		sp.end(root)
		rec.spans = sp.list
	}()

	s := sp.start(root, "parse")
	t0 := time.Now()
	q, err := omega.ParseQuery(r.text)
	rec.parse = time.Since(t0)
	sp.end(s)
	if err != nil {
		rec.err = fmt.Errorf("parse: %w", err)
		return rec
	}
	rec.join = len(q.Conjuncts) > 1
	s = sp.start(root, "prepare")
	t0 = time.Now()
	_, err = st.eng.Prepare(q)
	rec.prepare = time.Since(t0)
	sp.end(s)
	if err != nil {
		rec.err = fmt.Errorf("prepare: %w", err)
		return rec
	}

	// Execution runs on the server's cached plan and pool, as a request does.
	s = sp.start(root, "plan")
	pq, err := st.srv.PlanCache().Get(r.text, nil)
	sp.end(s)
	if err != nil {
		rec.err = fmt.Errorf("plan: %w", err)
		return rec
	}
	ex := sp.start(root, "exec")
	s = sp.start(ex, "open")
	t0 = time.Now()
	rows, err := pq.Exec(ctx, omega.ExecOptions{Limit: r.limit, Pool: st.srv.Pool(), Mem: omega.NewMemGauge(0, 0)})
	rec.open = time.Since(t0)
	sp.end(s)
	if err != nil {
		sp.end(ex)
		rec.err = fmt.Errorf("exec: %w", err)
		return rec
	}
	s = sp.start(ex, "next")
	chk := newChecker(refs[k], w.ordered)
	var nodes []int64
	d0 := time.Now()
	for {
		row, ok, err := rows.Next()
		if err != nil {
			rec.err = fmt.Errorf("next: %w", err)
			break
		}
		if !ok {
			break
		}
		if rec.rows == 0 {
			rec.ttfr = time.Since(t0)
		}
		rec.rows++
		nodes = nodes[:0]
		for _, n := range row.Nodes {
			nodes = append(nodes, int64(n))
		}
		chk.row(nodes, int64(row.Dist))
	}
	rec.drain = time.Since(d0)
	rec.exec = time.Since(t0)
	sp.end(s)
	sp.end(ex)
	rec.stats = rows.Stats()
	rows.Close()
	if rec.err == nil {
		rec.err = chk.finish()
	}

	s = sp.start(root, "serve_http")
	mw.reset()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.path(), nil)
	if err != nil {
		sp.end(s)
		rec.err = errors.Join(rec.err, err)
		return rec
	}
	t0 = time.Now()
	st.srv.ServeHTTP(mw, req)
	rec.handler = time.Since(t0)
	sp.end(s)
	if mw.status != http.StatusOK {
		rec.err = errors.Join(rec.err, fmt.Errorf("handler: HTTP %d", mw.status))
	} else if res := readStream(&mw.buf, t0, refs[k], w.ordered); res.err != nil {
		rec.err = errors.Join(rec.err, fmt.Errorf("handler: %w", res.err))
	}

	s = sp.start(root, "http")
	hs := c.do(ctx, k, r.path(), refs[k], w.ordered)
	rec.http = hs.latency
	sp.end(s)
	if hs.err != nil {
		rec.err = errors.Join(rec.err, fmt.Errorf("http: %w", hs.err))
	}
	return rec
}

// tracedPass runs the requests of order through tracedRequest on clients
// goroutines in closed loop and returns the records in stream order.
func tracedPass(ctx context.Context, st *stack, c *client, w *workload, refs []*answer, order []int, clients, firstID int, base time.Time) []record {
	recs := make([]record, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mw := &memWriter{}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(order) {
					return
				}
				recs[i] = tracedRequest(ctx, st, c, w, refs, order[i], firstID+i, base, mw)
			}
		}()
	}
	wg.Wait()
	return recs
}

// work is the engine's deterministic work over one traced pass, summed from
// Rows.Stats. Two passes over the same requests must agree exactly.
type work struct {
	Added, Popped, NeighborCalls, SuccHits, Visited int
	Phases, Deferred, Reinjected, Rows              int
	JoinPopped, JoinRows, Bulk, Execs               int
	SpillIOBytes                                    int64
}

func sumWork(recs []record) work {
	var t work
	for _, r := range recs {
		s := r.stats
		t.Added += s.TuplesAdded
		t.Popped += s.TuplesPopped
		t.NeighborCalls += s.NeighborCalls
		t.SuccHits += s.CacheHits
		t.Visited += s.VisitedSize
		t.Phases += s.Phases
		t.Deferred += s.Deferred
		t.Reinjected += s.Reinjected
		t.SpillIOBytes += s.SpillIOBytes
		t.Rows += r.rows
		if r.join {
			t.JoinPopped += s.TuplesPopped
			t.JoinRows += r.rows
		}
		if s.Backend == "bulk" {
			t.Bulk++
		}
		t.Execs++
	}
	return t
}

// layers is the --trace 1 run. Its first half is the untraced closed loop,
// which gives the serving layer's own counters under load and the untraced
// latency; its second half repeats traced passes over a fixed prefix of the
// seeded stream (at least two), which give each layer's time and the
// engine's work.
func layers(ctx context.Context, cfg config, st *stack, c *client, refs []*answer, rep *report, stdout io.Writer) error {
	w := &cfg.w
	nproc := runtime.NumCPU()
	half := time.Duration(cfg.seconds) * time.Second / 2
	sched0, cache0, pool0 := st.srv.Scheduler().Stats(), st.srv.PlanCache().Stats(), st.srv.Pool().Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	samples, _ := closedLoop(ctx, c, w, refs, newSequence(cfg.seed, len(w.requests)), nproc, half)
	runtime.ReadMemStats(&m1)
	sched1 := st.srv.Scheduler().Stats()
	lat, qwait := map[int][]float64{}, map[int][]float64{}
	for _, s := range samples {
		rep.count(w.requests[s.kind].kind, s.err)
		lat[s.kind] = append(lat[s.kind], ms(s.latency))
		qwait[s.kind] = append(qwait[s.kind], s.queueWait)
	}
	untracedP50 := kindMedian(lat)

	order := prefix(cfg.seed, len(w.requests), tracedRounds*len(w.requests))
	base := time.Now()
	deadline := base.Add(time.Duration(cfg.seconds)*time.Second - half)
	var recs []record
	var first work
	passes := 0
	for passes < 2 || time.Now().Before(deadline) {
		pass := tracedPass(ctx, st, c, w, refs, order, nproc, len(recs), base)
		for _, r := range pass {
			rep.count(w.requests[r.kind].kind, r.err)
		}
		t := sumWork(pass)
		if passes == 0 {
			first = t
		} else if t != first {
			rep.fail(fmt.Errorf("traced pass %d work %+v differs from pass 1 %+v", passes+1, t, first))
		}
		recs = append(recs, pass...)
		passes++
	}
	cache1, pool1 := st.srv.PlanCache().Stats(), st.srv.Pool().Stats()

	by := func(f func(r record) (float64, bool)) float64 {
		m := map[int][]float64{}
		for _, r := range recs {
			if v, ok := f(r); ok {
				m[r.kind] = append(m[r.kind], v)
			}
		}
		return kindMedian(m)
	}
	var drain time.Duration
	var memPeak int64
	for _, r := range recs {
		drain += r.drain
		memPeak = max(memPeak, r.stats.MemPeakBytes)
	}
	httpP50 := by(func(r record) (float64, bool) { return ms(r.http), true })

	rep.add("query.parse_us", "us", by(func(r record) (float64, bool) { return us(r.parse), true }))
	rep.add("automaton.compile_us", "us", by(func(r record) (float64, bool) { return us(r.prepare), true }))
	hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	rep.add("serve.plan_hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)))
	rep.add("omega.open_us", "us", by(func(r record) (float64, bool) { return us(r.open), true }))
	rep.add("omega.ttfr_ms", "ms", by(func(r record) (float64, bool) { return ms(r.ttfr), r.rows > 0 }))
	rep.add("omega.exec_ms", "ms", by(func(r record) (float64, bool) { return ms(r.exec), true }))
	rep.add("omega.row_ns", "ns", ratio(float64(drain), float64(first.Rows*passes)))
	rep.add("omega.pool_reuse_ratio", "ratio", ratio(float64(pool1.Reuses-pool0.Reuses), float64(pool1.Gets-pool0.Gets)))
	rep.add("dstruct.mem_peak_kb", "KiB", float64(memPeak)/1024)
	rep.add("dstruct.spill_io_bytes", "bytes", float64(first.SpillIOBytes))
	rep.add("core.tuples_added", "count", float64(first.Added))
	rep.add("core.tuples_popped", "count", float64(first.Popped))
	rep.add("core.pop_per_push", "ratio", ratio(float64(first.Popped), float64(first.Added)))
	rep.add("core.added_per_answer", "ratio", ratio(float64(first.Added), float64(first.Rows)))
	rep.add("core.neighbor_calls", "count", float64(first.NeighborCalls))
	rep.add("core.succ_hit_ratio", "ratio", ratio(float64(first.SuccHits), float64(first.SuccHits+first.NeighborCalls)))
	rep.add("core.visited_size", "count", float64(first.Visited))
	rep.add("core.phases", "count", float64(first.Phases))
	rep.add("core.deferred", "count", float64(first.Deferred))
	rep.add("core.reinjected", "count", float64(first.Reinjected))
	rep.add("core.join_pops_per_row", "ratio", ratio(float64(first.JoinPopped), float64(first.JoinRows)))
	rep.add("bulk.share", "ratio", ratio(float64(first.Bulk), float64(first.Execs)))
	rep.add("serve.handler_p50_ms", "ms", by(func(r record) (float64, bool) { return ms(r.handler), true }))
	rep.add("serve.encode_write_ms", "ms", by(func(r record) (float64, bool) { return ms(r.handler - r.exec), true }))
	rep.add("serve.transport_ms", "ms", by(func(r record) (float64, bool) { return ms(r.http - r.handler), true }))
	rep.add("serve.queue_wait_p50_ms", "ms", kindMedian(qwait))
	rep.add("serve.gap_p99_ms", "ms", sched1.GapP99Ms)
	submitted, rejected := sched1.Submitted-sched0.Submitted, sched1.Rejected-sched0.Rejected
	rep.add("serve.rejected_ratio", "ratio", ratio(float64(rejected), float64(submitted+rejected)))
	rep.add("runtime.gc_per_req", "count", ratio(float64(m1.NumGC-m0.NumGC), float64(len(samples))))
	rep.add("trace.overhead_ratio", "ratio", ratio(httpP50-untracedP50, untracedP50))

	overhead := fmt.Sprintf("tracing overhead: traced HTTP p50 %g ms - untraced p50 %g ms = %g ms, %.4f of the untraced base",
		httpP50, untracedP50, httpP50-untracedP50, ratio(httpP50-untracedP50, untracedP50))
	fmt.Fprintf(stdout, "closed loop (untraced): %d clients, %d requests in %s\n", nproc, len(samples), half)
	fmt.Fprintf(stdout, "traced: %d passes of %d requests (%d rounds of the seed-%d stream), %d clients\n",
		passes, len(order), tracedRounds, cfg.seed, nproc)
	fmt.Fprintf(stdout, "work per pass (identical across passes): %+v\n", first)
	return writeArtifacts(cfg, recs, overhead, stdout)
}

// layerTime is one row of the self-time table.
type layerTime struct {
	name        string
	calls       int
	total, self time.Duration
}

// selfTimes sums, per span name, each span's duration and its self time:
// the duration minus the part its child spans cover.
func selfTimes(recs []record) []layerTime {
	idx := map[string]int{}
	var out []layerTime
	for _, r := range recs {
		child := make([]int64, len(r.spans))
		for _, s := range r.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range r.spans {
			j, ok := idx[s.Name]
			if !ok {
				j = len(out)
				idx[s.Name] = j
				out = append(out, layerTime{name: s.Name})
			}
			out[j].calls++
			out[j].total += time.Duration(s.End - s.Start)
			out[j].self += time.Duration(s.End - s.Start - child[i])
		}
	}
	return out
}

// writeArtifacts writes every span as JSON lines and the per-layer self-time
// table headed by the tracing overhead, and prints the table.
func writeArtifacts(cfg config, recs []record, overhead string, stdout io.Writer) error {
	stem := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d", cfg.w.name, cfg.seed))
	f, err := os.Create(stem + "-spans.jsonl")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, r := range recs {
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := errors.Join(bw.Flush(), f.Close()); err != nil {
		return err
	}

	lt := selfTimes(recs)
	var reqTotal time.Duration
	for _, l := range lt {
		if l.name == "request" {
			reqTotal = l.total
		}
	}
	slices.SortStableFunc(lt, func(a, b layerTime) int { return cmp.Compare(b.self, a.self) })
	var tb bytes.Buffer
	tw := tabwriter.NewWriter(&tb, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(&tb, "self time per layer, %s seed %d, %d traced requests\n%s\n", cfg.w.name, cfg.seed, len(recs), overhead)
	fmt.Fprintln(tw, "layer\tcalls\ttotal_ms\tself_ms\tself_share\t")
	for _, l := range lt {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.4f\t\n", l.name, l.calls, ms(l.total), ms(l.self),
			ratio(float64(l.self), float64(reqTotal)))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if err := os.WriteFile(stem+"-selftime.txt", tb.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%sspans: %s-spans.jsonl\n", tb.String(), stem)
	return nil
}
