package omega_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"omega"
	"omega/internal/fault"
	"omega/internal/serve"
)

// Chaos tests: randomized but seeded fault schedules over the study corpus,
// at the engine level and through the full HTTP serving stack. Each schedule
// is a probabilistic failpoint spec; the per-site RNGs are seeded, so a
// failing (schedule, seed) pair replays exactly. The invariants checked are
// the failure-model contract, not specific rows:
//
//   - every failure surfaces as a typed error (ErrSpill, fault.ErrInjected,
//     or a recovered panic) through the sticky Rows contract;
//   - no execution leaks spill files, whatever killed it;
//   - pooled evaluator state is never recycled across a failure: once faults
//     are disarmed, pooled executions are byte-identical to fresh ones;
//   - the server keeps serving — /healthz green, /statsz parseable — across
//     panics, disk faults and write failures.
//
// This file lives in package omega_test (not omega) so it can import
// internal/serve, which itself imports omega.

const chaosQuery = "(?X) <- APPROX (Librarians, type-.job-.next, ?X)"

// cleanQuery is a small APPROX query whose accounted peak stays well below
// the memory-pressure storm's broker budget.
const cleanQuery = "(?X) <- APPROX (Librarians, type-, ?X)"

// chaosCorpus returns a small query mix: the spill-heavy APPROX query, a few
// corpus queries and one two-conjunct join (so the HRJN cascade's error path
// sees the injected faults too), enough shape diversity to reach every fault
// site.
func chaosCorpus(tb testing.TB) []string {
	tb.Helper()
	texts := []string{chaosQuery}
	for _, q := range omega.L4AllQueries()[:3] {
		texts = append(texts, q.Text)
	}
	return append(texts, "(?X, ?Y) <- (?X, job, ?Y), (?Y, type, Occupation)")
}

func chaosEngine(tb testing.TB, opts omega.Options) *omega.Engine {
	tb.Helper()
	g, ont, err := omega.GenerateL4All("L1")
	if err != nil {
		tb.Fatal(err)
	}
	return omega.NewEngine(g, ont).WithOptions(opts)
}

// drainChaos pulls rows until exhaustion or failure, recovering panics the
// way a serving worker does: abort the execution so its state (pooled or
// disk-backed) is discarded, and report the panic as the terminal error.
func drainChaos(rows *omega.Rows, limit int) (n int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("recovered panic: %v", r)
			rows.Abort(err)
		}
	}()
	for limit <= 0 || n < limit {
		_, ok, e := rows.Next()
		if e != nil {
			rows.Close()
			return n, e
		}
		if !ok {
			break
		}
		n++
	}
	rows.Close()
	return n, nil
}

// typedChaosError reports whether err is one of the failure model's known
// terminal errors for an execution running under an armed fault schedule.
func typedChaosError(err error) bool {
	return errors.Is(err, omega.ErrSpill) ||
		errors.Is(err, omega.ErrMemBudget) ||
		errors.Is(err, fault.ErrInjected) ||
		strings.Contains(err.Error(), "recovered panic")
}

// mergeFired accumulates the sites that actually fired so far.
func mergeFired(fired map[string]int64) {
	for site, st := range fault.Stats() {
		fired[site] += st.Fires
	}
}

// TestChaosSpillFaults storms the disk-failure surface: spilling executions
// (dictionary + deferred frontier) under probabilistic write/load/remove
// faults, across several seeds. Whatever dies must die typed, and the spill
// parent must be empty once every execution is released.
func TestChaosSpillFaults(t *testing.T) {
	dir := t.TempDir()
	eng := chaosEngine(t, omega.Options{
		DistanceAware:  true,
		SpillThreshold: 8,
		SpillDir:       dir,
	})
	queries := chaosCorpus(t)
	schedules := []string{
		"dstruct.spill.write=error@0.4;dstruct.deferred.write=error@0.3",
		"dstruct.spill.load=error@0.5;dstruct.deferred.load=error@0.4",
		"dstruct.spill.remove=error@0.6;dstruct.deferred.remove=error@0.5;dstruct.spill.write=error@0.1",
	}
	fired := map[string]int64{}
	t.Cleanup(fault.Reset)
	failures := 0
	for _, spec := range schedules {
		for seed := int64(1); seed <= 3; seed++ {
			if err := fault.Configure(spec, seed); err != nil {
				t.Fatal(err)
			}
			for _, text := range queries {
				pq, err := eng.PrepareText(text)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := pq.Exec(context.Background(), omega.ExecOptions{})
				if err != nil {
					t.Fatalf("%s seed %d: Exec: %v", spec, seed, err)
				}
				if _, err := drainChaos(rows, 150); err != nil {
					failures++
					if !typedChaosError(err) {
						t.Fatalf("%s seed %d %q: untyped error %v", spec, seed, text, err)
					}
				}
			}
			mergeFired(fired)
			fault.Reset()
		}
	}
	if failures == 0 {
		t.Fatal("no execution ever failed — the schedules are not exercising anything")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("spill dir not empty after chaos: %v", names)
	}
	if len(fired) < 3 {
		t.Fatalf("only %d fault sites fired (%v), want >= 3", len(fired), fired)
	}
}

// TestChaosPooledExecutions storms the pool-poisoning surface: pooled,
// memory-resident executions under probabilistic evaluation errors and
// panics. After every faulty round the faults are disarmed and each query's
// pooled output must be byte-identical to the fresh baseline — no corrupted
// bundle may ever reach a later request.
func TestChaosPooledExecutions(t *testing.T) {
	eng := chaosEngine(t, omega.Options{DistanceAware: true})
	queries := chaosCorpus(t)
	const limit = 150

	type baseline struct {
		pq   *omega.PreparedQuery
		rows []omega.Row
	}
	baselines := make([]baseline, 0, len(queries))
	for _, text := range queries {
		pq, err := eng.PrepareText(text)
		if err != nil {
			t.Fatal(err)
		}
		r, err := pq.Exec(context.Background(), omega.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.Collect(limit)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		baselines = append(baselines, baseline{pq: pq, rows: want})
	}

	pool := omega.NewEvalPool(8)
	fired := map[string]int64{}
	t.Cleanup(fault.Reset)
	failures := 0
	for seed := int64(1); seed <= 4; seed++ {
		// Alternate between error and panic rounds so both failure shapes
		// pass through the pool.
		spec := "core.row=error@0.03"
		if seed%2 == 0 {
			spec = "core.row=panic@0.02"
		}
		if err := fault.Configure(spec, seed); err != nil {
			t.Fatal(err)
		}
		for _, b := range baselines {
			rows, err := b.pq.Exec(context.Background(), omega.ExecOptions{Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := drainChaos(rows, limit); err != nil {
				failures++
				if !typedChaosError(err) {
					t.Fatalf("seed %d: untyped error %v", seed, err)
				}
			}
		}
		mergeFired(fired)
		fault.Reset()

		// Disarmed: every pooled run must match the fresh baseline exactly.
		for qi, b := range baselines {
			rows, err := b.pq.Exec(context.Background(), omega.ExecOptions{Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			got, err := rows.Collect(limit)
			rows.Close()
			if err != nil {
				t.Fatalf("seed %d query %d: clean pooled run failed: %v", seed, qi, err)
			}
			if len(got) != len(b.rows) {
				t.Fatalf("seed %d query %d: pooled %d rows, fresh %d", seed, qi, len(got), len(b.rows))
			}
			for i := range got {
				if got[i].Dist != b.rows[i].Dist || !slices.Equal(got[i].Labels, b.rows[i].Labels) {
					t.Fatalf("seed %d query %d row %d: pooled %v, fresh %v", seed, qi, i, got[i], b.rows[i])
				}
			}
		}
	}
	if failures == 0 {
		t.Fatal("no execution ever failed — the schedule is not exercising anything")
	}
	if s := pool.Stats(); s.Poisoned == 0 {
		t.Fatalf("failures occurred but no bundle was poisoned: %+v", s)
	}
}

// TestChaosServer storms the full serving stack: concurrent HTTP requests
// against a spilling, pooled server while panics, evaluation errors, disk
// faults and write-path failures all fire probabilistically. Individual
// requests may fail — but only with well-formed responses; the server itself
// must end the storm healthy, stats-serving, and with zero leftover disk
// state after drain.
func TestChaosServer(t *testing.T) {
	spillDir := t.TempDir()
	eng := chaosEngine(t, omega.Options{
		DistanceAware:  true,
		SpillThreshold: 8,
		SpillDir:       spillDir,
	})
	srv := serve.New(serve.Config{
		Engine:  eng,
		Workers: 4,
		Queue:   16,
		Quantum: 8,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := "serve.quantum=panic@0.03;serve.write=error@0.02;dstruct.spill.write=error@0.15;core.row=error@0.01;bulk.step=error@0.05;par.shard=error@0.05;bulk.block=error@0.05"
	if err := fault.Configure(spec, 42); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Reset)

	const (
		clients  = 6
		requests = 8
	)
	q := url.Values{"q": {chaosQuery}, "limit": {"80"}}
	target := ts.URL + "/query?" + q.Encode()
	// A quarter of the storm goes through the bulk backend (forced: the
	// request is limited, so auto would stream a ranked prefix), reaching the
	// bulk.step fault site through the same serving stack.
	bq := url.Values{"q": {"(?X, ?Y) <- (?X, job.type, ?Y)"}, "backend": {"bulk"}, "limit": {"80"}}
	bulkTarget := ts.URL + "/query?" + bq.Encode()
	// Another half runs the same variable-subject query at parallelism 8,
	// exhaustively. On this spill-configured engine the ranked request routes
	// through the shard split's serial fallback (spilling executions are not
	// shard-eligible), while the bulk request's block fan-out engages and
	// reaches the bulk.block worker site; TestChaosParShard covers par.shard
	// deterministically on a spill-free engine.
	pq := url.Values{"q": {"(?X, ?Y) <- (?X, job.type, ?Y)"}, "backend": {"ranked"}, "parallel": {"8"}}
	parTarget := ts.URL + "/query?" + pq.Encode()
	pbq := url.Values{"q": {"(?X, ?Y) <- (?X, job.type, ?Y)"}, "backend": {"bulk"}, "parallel": {"8"}}
	parBulkTarget := ts.URL + "/query?" + pbq.Encode()
	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := map[int]int{}
	inBandErrors := 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				u := target
				switch r % 4 {
				case 1:
					u = bulkTarget
				case 2:
					u = parTarget
				case 3:
					u = parBulkTarget
				}
				resp, err := ts.Client().Get(u)
				if err != nil {
					t.Errorf("GET: %v", err)
					return
				}
				sawError := false
				sc := bufio.NewScanner(resp.Body)
				sc.Buffer(make([]byte, 1<<20), 1<<20)
				for sc.Scan() {
					var probe map[string]any
					if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
						// Non-NDJSON bodies come from http.Error on pre-stream
						// failures; only NDJSON responses must parse per line.
						if resp.StatusCode == http.StatusOK {
							t.Errorf("bad NDJSON line %q", sc.Bytes())
						}
						break
					}
					if probe["error"] != nil {
						sawError = true
					}
				}
				resp.Body.Close()
				mu.Lock()
				statuses[resp.StatusCode]++
				if sawError {
					inBandErrors++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	mergeFired := map[string]int64{}
	for site, st := range fault.Stats() {
		if st.Fires > 0 {
			mergeFired[site] = st.Fires
		}
	}
	if len(mergeFired) < 3 {
		t.Fatalf("only %d fault sites fired (%v), want >= 3", len(mergeFired), mergeFired)
	}
	for code := range statuses {
		switch code {
		case http.StatusOK, http.StatusInternalServerError,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("unexpected status %d (statuses: %v)", code, statuses)
		}
	}
	fault.Reset()

	// The server survived the storm: health and stats endpoints answer, and
	// a clean query streams end to end.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after chaos: %d", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var statsz struct {
		Scheduler serve.SchedulerStats `json:"scheduler"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&statsz); err != nil {
		t.Fatalf("statsz after chaos: %v", err)
	}
	resp.Body.Close()
	clean, err := ts.Client().Get(target)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(clean.Body)
	clean.Body.Close()
	if clean.StatusCode != http.StatusOK || !strings.Contains(string(body), `"done":true`) {
		t.Fatalf("clean query after chaos: status=%d body tail %q", clean.StatusCode, tail(string(body)))
	}

	// Drain and check for leaked disk state.
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("server Close: %v", err)
	}
	entries, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("spill dir not empty after drain: %v", names)
	}
	t.Logf("chaos summary: statuses=%v in-band errors=%d fired=%v panics=%d",
		statuses, inBandErrors, mergeFired, statsz.Scheduler.Panics)
}

// TestChaosBulkStep storms the bulk backend's per-level fault site: forced
// bulk executions of an exhaustive exact query under a probabilistic
// bulk.step schedule and an externally observed memory gauge. Failures must
// be the typed fault.ErrInjected, every death must refund its accounted
// bytes to the gauge, and once disarmed the bulk answer set must match the
// ranked baseline exactly.
func TestChaosBulkStep(t *testing.T) {
	eng := chaosEngine(t, omega.Options{})
	pq, err := eng.PrepareText("(?X, ?Y) <- (?X, job.type, ?Y)")
	if err != nil {
		t.Fatal(err)
	}
	key := func(r omega.Row) string { return fmt.Sprintf("%v", r.Nodes) }
	baselineRows := func(eo omega.ExecOptions) map[string]bool {
		rows, err := pq.Exec(context.Background(), eo)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rows.Collect(0)
		rows.Close()
		if err != nil {
			t.Fatal(err)
		}
		set := make(map[string]bool, len(got))
		for _, r := range got {
			set[key(r)] = true
		}
		return set
	}
	want := baselineRows(omega.ExecOptions{Backend: omega.BackendRanked})

	t.Cleanup(fault.Reset)
	failures := 0
	var maxPeak int64
	for seed := int64(1); seed <= 6; seed++ {
		if err := fault.Configure("bulk.step=error@0.5", seed); err != nil {
			t.Fatal(err)
		}
		gauge := omega.NewMemGauge(0, 0)
		rows, err := pq.Exec(context.Background(), omega.ExecOptions{Backend: omega.BackendBulk, Mem: gauge})
		if err != nil {
			t.Fatalf("seed %d: Exec: %v", seed, err)
		}
		n, err := drainChaos(rows, 0)
		if err != nil {
			failures++
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("seed %d: bulk death not typed fault.ErrInjected: %v", seed, err)
			}
			if !strings.Contains(err.Error(), "bulk step") {
				t.Fatalf("seed %d: error %v does not name the bulk.step site", seed, err)
			}
		}
		// The failpoint fires before the step's byte accounting, so a
		// first-step kill legitimately records no peak; across the seeds at
		// least one run must get far enough to account its matrices.
		if p := gauge.PeakBytes(); p > maxPeak {
			maxPeak = p
		}
		if live := gauge.LiveBytes(); live != 0 {
			t.Fatalf("seed %d: %d live bytes after release (drained %d rows, err=%v)", seed, live, n, err)
		}
		fault.Reset()

		// Disarmed: the same prepared query, forced bulk, matches ranked.
		got := baselineRows(omega.ExecOptions{Backend: omega.BackendBulk})
		if len(got) != len(want) {
			t.Fatalf("seed %d: bulk %d rows after disarm, ranked %d", seed, len(got), len(want))
		}
		for k := range got {
			if !want[k] {
				t.Fatalf("seed %d: bulk row %s not in ranked set", seed, k)
			}
		}
	}
	if failures == 0 {
		t.Fatal("bulk.step@0.5 never killed an execution across 6 seeds — the site is not armed")
	}
	if maxPeak == 0 {
		t.Fatal("no bulk execution ever accounted bytes into the gauge")
	}
}

// TestChaosParShard storms the parallel worker fault sites: sharded ranked
// executions under a probabilistic par.shard schedule, and block-fanned bulk
// executions under bulk.block, both at parallelism 8 over a variable-subject
// exact query (large enough a source population that the fan-out genuinely
// engages). Worker deaths must surface as the typed fault.ErrInjected naming
// the site, every death must refund its accounted bytes to the externally
// observed gauge, and once disarmed the parallel ordered emission must replay
// the serial sequence byte for byte.
func TestChaosParShard(t *testing.T) {
	eng := chaosEngine(t, omega.Options{})
	pq, err := eng.PrepareText("(?X, ?Y) <- (?X, job.type, ?Y)")
	if err != nil {
		t.Fatal(err)
	}
	ordered := func(eo omega.ExecOptions) []string {
		rows, err := pq.Exec(context.Background(), eo)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rows.Collect(0)
		rows.Close()
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(got))
		for i, r := range got {
			keys[i] = fmt.Sprintf("%v d%d", r.Nodes, r.Dist)
		}
		return keys
	}

	sites := []struct {
		spec    string // armed schedule
		name    string // substring the typed error must carry
		backend omega.Backend
	}{
		{"par.shard=error@0.5", "shard", omega.BackendRanked},
		{"bulk.block=error@0.5", "bulk block", omega.BackendBulk},
	}
	t.Cleanup(fault.Reset)
	for _, site := range sites {
		serial := ordered(omega.ExecOptions{Backend: site.backend, Parallelism: 1})
		failures := 0
		engaged := false
		for seed := int64(1); seed <= 6; seed++ {
			if err := fault.Configure(site.spec, seed); err != nil {
				t.Fatal(err)
			}
			gauge := omega.NewMemGauge(0, 0)
			rows, err := pq.Exec(context.Background(), omega.ExecOptions{
				Backend: site.backend, Parallelism: 8, Mem: gauge,
			})
			if err != nil {
				t.Fatalf("%s seed %d: Exec: %v", site.spec, seed, err)
			}
			n, err := drainChaos(rows, 0)
			if err != nil {
				failures++
				if !errors.Is(err, fault.ErrInjected) {
					t.Fatalf("%s seed %d: worker death not typed fault.ErrInjected: %v", site.spec, seed, err)
				}
				if !strings.Contains(err.Error(), site.name) {
					t.Fatalf("%s seed %d: error %v does not name the %s site", site.spec, seed, err, site.name)
				}
			}
			if live := gauge.LiveBytes(); live != 0 {
				t.Fatalf("%s seed %d: %d live bytes after release (drained %d rows, err=%v)", site.spec, seed, live, n, err)
			}
			fault.Reset()

			// Disarmed: the same prepared query at parallelism 8 must replay
			// the serial ordered emission exactly, and report the fan-out it
			// actually ran (no vacuous pass through a serial fallback).
			rows, err = pq.Exec(context.Background(), omega.ExecOptions{Backend: site.backend, Parallelism: 8})
			if err != nil {
				t.Fatal(err)
			}
			got, err := rows.Collect(0)
			st := rows.Stats()
			rows.Close()
			if err != nil {
				t.Fatalf("%s seed %d: clean parallel run failed: %v", site.spec, seed, err)
			}
			if st.Shards >= 2 {
				engaged = true
			}
			if len(got) != len(serial) {
				t.Fatalf("%s seed %d: parallel %d rows after disarm, serial %d", site.spec, seed, len(got), len(serial))
			}
			for i, r := range got {
				if k := fmt.Sprintf("%v d%d", r.Nodes, r.Dist); k != serial[i] {
					t.Fatalf("%s seed %d row %d: parallel %s, serial %s", site.spec, seed, i, k, serial[i])
				}
			}
		}
		if failures == 0 {
			t.Fatalf("%s never killed an execution across 6 seeds — the site is not armed", site.spec)
		}
		if !engaged {
			t.Fatalf("%s: no clean run ever reported >= 2 shards — the fan-out never engaged", site.spec)
		}
	}
}

// TestChaosMemoryPressure storms the memory-governance surface: concurrent
// pooled executions under tiny soft/hard budgets and probabilistic
// mem.soft/mem.hard failpoints, then the full HTTP stack under a tiny
// server-wide broker budget. The contract under pressure:
//
//   - every budget death is the typed omega.ErrMemBudget (soft crossings
//     never kill — they escalate to disk and keep streaming);
//   - once budgets are lifted and faults disarmed, pooled executions are
//     byte-identical to fresh ones (no bundle survives an abort, no armed
//     spill state leaks into a later request);
//   - zero spill directories remain on disk;
//   - the server ends the storm healthy, with the aborts visible in /statsz.
func TestChaosMemoryPressure(t *testing.T) {
	spillParent := t.TempDir()
	eng := chaosEngine(t, omega.Options{
		DistanceAware: true,
		SpillDir:      spillParent, // escalation target; threshold stays 0 so pooling engages
	})
	queries := chaosCorpus(t)
	const limit = 150

	type baseline struct {
		pq   *omega.PreparedQuery
		rows []omega.Row
	}
	baselines := make([]baseline, 0, len(queries))
	for _, text := range queries {
		pq, err := eng.PrepareText(text)
		if err != nil {
			t.Fatal(err)
		}
		r, err := pq.Exec(context.Background(), omega.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.Collect(limit)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		baselines = append(baselines, baseline{pq: pq, rows: want})
	}

	pool := omega.NewEvalPool(8)
	t.Cleanup(fault.Reset)
	budgets := []omega.ExecOptions{
		{SoftMemBytes: 4 << 10},                         // degrade early, stream on
		{SoftMemBytes: 4 << 10, HardMemBytes: 24 << 10}, // degrade, then maybe die
		{HardMemBytes: 8 << 10},                         // die fast
	}
	var (
		mu          sync.Mutex
		memAborts   int
		escalations int
	)
	for seed := int64(1); seed <= 3; seed++ {
		if err := fault.Configure("mem.soft=error@0.3;mem.hard=error@0.02", seed); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, b := range baselines {
			for bi := range budgets {
				wg.Add(1)
				go func(b baseline, eo omega.ExecOptions) {
					defer wg.Done()
					eo.Pool = pool
					rows, err := b.pq.Exec(context.Background(), eo)
					if err != nil {
						t.Errorf("Exec under budget: %v", err)
						return
					}
					n, err := drainChaosStats(rows, limit, &mu, &escalations)
					if err != nil {
						if !typedChaosError(err) {
							t.Errorf("untyped error after %d rows: %v", n, err)
							return
						}
						mu.Lock()
						if errors.Is(err, omega.ErrMemBudget) {
							memAborts++
						}
						mu.Unlock()
					}
				}(b, budgets[bi])
			}
		}
		wg.Wait()
		fault.Reset()

		// Budgets lifted, faults disarmed: pooled output must be byte-identical
		// to the fresh baseline — aborted bundles were discarded, surviving
		// ones carry no armed spill state.
		for qi, b := range baselines {
			rows, err := b.pq.Exec(context.Background(), omega.ExecOptions{Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			got, err := rows.Collect(limit)
			rows.Close()
			if err != nil {
				t.Fatalf("seed %d query %d: clean pooled run failed: %v", seed, qi, err)
			}
			if len(got) != len(b.rows) {
				t.Fatalf("seed %d query %d: pooled %d rows, fresh %d", seed, qi, len(got), len(b.rows))
			}
			for i := range got {
				if got[i].Dist != b.rows[i].Dist || !slices.Equal(got[i].Labels, b.rows[i].Labels) {
					t.Fatalf("seed %d query %d row %d: pooled %v, fresh %v", seed, qi, i, got[i], b.rows[i])
				}
			}
		}
	}
	if memAborts == 0 {
		t.Fatal("no execution ever died of its memory budget — the storm exercised nothing")
	}
	if escalations == 0 {
		t.Fatal("no execution ever escalated to disk — the soft watermark exercised nothing")
	}
	if entries, err := os.ReadDir(spillParent); err != nil || len(entries) != 0 {
		t.Fatalf("spill parent not empty after storm: %v entries, err=%v", len(entries), err)
	}

	// Full HTTP stack: tiny per-request hard watermark by server default, a
	// broker with a real budget, concurrent clients. Requests may die — only
	// with well-formed responses and the typed status mapping.
	httpSpill := t.TempDir()
	const memBudget = 1 << 20
	srv := serve.New(serve.Config{
		Engine: chaosEngine(t, omega.Options{
			DistanceAware: true,
			SpillDir:      httpSpill,
		}),
		Workers:          4,
		Queue:            8,
		Quantum:          8,
		MemBudget:        memBudget,
		MemReserve:       1,
		MemCheckInterval: 2 * time.Millisecond,
		SoftMemBytes:     8 << 10,
		HardMemBytes:     48 << 10,
	})
	ts := httptest.NewServer(srv.Handler())
	if err := fault.Configure("mem.soft=error@0.2;mem.hard=error@0.05;broker.reserve=error@0.05", 7); err != nil {
		t.Fatal(err)
	}
	q := url.Values{"q": {chaosQuery}, "limit": {"80"}}
	target := ts.URL + "/query?" + q.Encode()
	var wg sync.WaitGroup
	statuses := map[int]int{}
	inBand := 0
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 8; r++ {
				resp, err := ts.Client().Get(target)
				if err != nil {
					t.Errorf("GET: %v", err)
					return
				}
				sawError := false
				sc := bufio.NewScanner(resp.Body)
				sc.Buffer(make([]byte, 1<<20), 1<<20)
				for sc.Scan() {
					var probe map[string]any
					if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
						if resp.StatusCode == http.StatusOK {
							t.Errorf("bad NDJSON line %q", sc.Bytes())
						}
						break
					}
					if probe["error"] != nil {
						sawError = true
					}
				}
				resp.Body.Close()
				mu.Lock()
				statuses[resp.StatusCode]++
				if sawError {
					inBand++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	fault.Reset()
	for code := range statuses {
		switch code {
		case http.StatusOK, http.StatusInternalServerError, http.StatusServiceUnavailable,
			http.StatusGatewayTimeout, http.StatusInsufficientStorage:
		default:
			t.Fatalf("unexpected status %d (statuses: %v)", code, statuses)
		}
	}
	if statuses[http.StatusInsufficientStorage]+inBand == 0 {
		t.Fatalf("no request ever died of its memory budget (statuses: %v)", statuses)
	}

	// The server survived: health green, the aborts visible in /statsz, and a
	// budget-free query streams end to end.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after memory storm: %d", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var statsz struct {
		MemBroker *serve.BrokerStats `json:"mem_broker"`
		Runtime   struct {
			HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
		} `json:"runtime"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&statsz); err != nil {
		t.Fatalf("statsz after memory storm: %v", err)
	}
	resp.Body.Close()
	if statsz.MemBroker == nil || statsz.MemBroker.BudgetAborts == 0 {
		t.Fatalf("statsz mem_broker = %+v, want budget_aborts > 0", statsz.MemBroker)
	}
	if statsz.Runtime.HeapAllocBytes == 0 {
		t.Fatal("statsz runtime stats missing")
	}
	// softmem=0&hardmem=0 lifts only the per-request watermarks; the broker's
	// server-wide budget still applies, and its victim monitor may rightly
	// kill a request whose own accounted peak exceeds it. The clean request
	// is therefore one that fits the budget (chaosQuery itself peaks above
	// 1 MiB), and its done line proves it did.
	cq := url.Values{"q": {cleanQuery}, "limit": {"80"}, "softmem": {"0"}, "hardmem": {"0"}}
	clean, err := ts.Client().Get(ts.URL + "/query?" + cq.Encode())
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(clean.Body)
	clean.Body.Close()
	if clean.StatusCode != http.StatusOK || !strings.Contains(string(body), `"done":true`) {
		t.Fatalf("clean query after memory storm: status=%d body tail %q", clean.StatusCode, tail(string(body)))
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var done struct {
		Stats struct {
			MemPeakBytes int64 `json:"mem_peak_bytes"`
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &done); err != nil {
		t.Fatalf("clean query done line: %v", err)
	}
	if peak := done.Stats.MemPeakBytes; peak <= 0 || peak >= memBudget {
		t.Fatalf("clean query mem_peak_bytes = %d, want in (0, %d): the broker could kill it", peak, memBudget)
	}

	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("server Close: %v", err)
	}
	if entries, err := os.ReadDir(httpSpill); err != nil || len(entries) != 0 {
		t.Fatalf("HTTP spill parent not empty after drain: %v entries, err=%v", len(entries), err)
	}

	// When CI pins GOMEMLIMIT, the storm must not have blown through it: the
	// accounted budgets exist precisely to keep the process heap bounded.
	if lim := debug.SetMemoryLimit(-1); lim != math.MaxInt64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > uint64(lim) {
			t.Fatalf("HeapAlloc %d exceeds GOMEMLIMIT %d after memory storm", ms.HeapAlloc, lim)
		}
	}
}

// drainChaosStats drains rows like drainChaos, folding the execution's
// spill-escalation count into the shared tally before release.
func drainChaosStats(rows *omega.Rows, limit int, mu *sync.Mutex, escalations *int) (n int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("recovered panic: %v", r)
			rows.Abort(err)
		}
	}()
	record := func() {
		s := rows.Stats()
		if s.SpillEscalations > 0 {
			mu.Lock()
			*escalations += s.SpillEscalations
			mu.Unlock()
		}
	}
	for limit <= 0 || n < limit {
		_, ok, e := rows.Next()
		if e != nil {
			record()
			rows.Close()
			return n, e
		}
		if !ok {
			break
		}
		n++
	}
	record()
	rows.Close()
	return n, nil
}

// TestEnvFailpointChaos is the CI fault-injection job's entry point: the job
// sets OMEGA_FAILPOINTS/OMEGA_FAILPOINTS_SEED in the environment and runs only
// this test under -race, so the test exercises the production activation path
// (the fault package's init arming from env at process start) rather than
// programmatic Configure. It drives the spill-heavy corpus through pooled
// executions under whatever schedule the environment armed, requires every
// failure to be typed, and — after disarming — requires pooled output to be
// byte-identical to fresh and the spill parent to be empty. Skips when the
// environment is clean, so ordinary `go test ./...` runs are unaffected.
func TestEnvFailpointChaos(t *testing.T) {
	spec := os.Getenv("OMEGA_FAILPOINTS")
	if spec == "" {
		t.Skip("OMEGA_FAILPOINTS not set (this test backs the CI fault-injection job)")
	}
	if !fault.Enabled() {
		t.Fatalf("OMEGA_FAILPOINTS=%q is set but the registry was not armed at process start", spec)
	}
	t.Cleanup(fault.Reset)

	dir := t.TempDir()
	eng := chaosEngine(t, omega.Options{
		DistanceAware:  true,
		SpillThreshold: 8,
		SpillDir:       dir,
	})
	pool := omega.NewEvalPool(4)
	queries := chaosCorpus(t)
	const (
		limit  = 150
		rounds = 6
	)

	failures := 0
	for round := 0; round < rounds; round++ {
		for _, text := range queries {
			pq, err := eng.PrepareText(text)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := pq.Exec(context.Background(), omega.ExecOptions{Pool: pool})
			if err != nil {
				failures++
				if !typedChaosError(err) {
					t.Fatalf("round %d %q: untyped Exec error %v", round, text, err)
				}
				continue
			}
			if _, err := drainChaos(rows, limit); err != nil {
				failures++
				if !typedChaosError(err) {
					t.Fatalf("round %d %q: untyped error %v", round, text, err)
				}
			}
		}
	}
	fired := map[string]int64{}
	mergeFired(fired)
	var fires int64
	for _, n := range fired {
		fires += n
	}
	if fires == 0 {
		t.Fatalf("env schedule %q never fired across %d rounds (stats: %v)", spec, rounds, fault.Stats())
	}

	// Disarmed: nothing the faults touched may survive. Pooled output must be
	// byte-identical to fresh for every query, and the executions above must
	// have released all their disk state.
	fault.Reset()
	for _, text := range queries {
		pq, err := eng.PrepareText(text)
		if err != nil {
			t.Fatal(err)
		}
		collect := func(eo omega.ExecOptions) []omega.Row {
			rows, err := pq.Exec(context.Background(), eo)
			if err != nil {
				t.Fatalf("clean run after env chaos: %q: %v", text, err)
			}
			got, err := rows.Collect(limit)
			rows.Close()
			if err != nil {
				t.Fatalf("clean run after env chaos: %q: %v", text, err)
			}
			return got
		}
		fresh := collect(omega.ExecOptions{})
		pooled := collect(omega.ExecOptions{Pool: pool})
		if len(fresh) != len(pooled) {
			t.Fatalf("%q: pooled %d rows, fresh %d after env chaos", text, len(pooled), len(fresh))
		}
		for i := range fresh {
			if fresh[i].Dist != pooled[i].Dist || fresh[i].Labels[0] != pooled[i].Labels[0] {
				t.Fatalf("%q row %d: pooled %v, fresh %v", text, i, pooled[i], fresh[i])
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("spill dir not empty after env chaos: %v", names)
	}
	t.Logf("env chaos: spec=%q failures=%d fired=%v", spec, failures, fired)
}

func tail(s string) string {
	if len(s) > 200 {
		return s[len(s)-200:]
	}
	return s
}
