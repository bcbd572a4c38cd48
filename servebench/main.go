// Command servebench is the repository's serving benchmark. It generates an
// L4All dataset, starts a serve.Server on a loopback listener inside its own
// process, and drives it in closed loop with one seeded request stream per
// workload, checking every answer against a reference computed in-process.
//
//	servebench --workload topk_flex --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics a client sees; with
// --trace 1 it reports per-layer metrics from a traced pass that calls each
// layer's public entry point in turn (see trace.go). Every run prints its
// provenance and metrics as text, then one JSON object as the last line of
// standard output. It exits 0 only when every answer was correct and the
// server shut down cleanly; bad flags or a failed set-up exit non-zero
// without a result line.
//
// Build and run it from the repository root with servebench/run.sh. The
// build cache, the binary, the trace artifacts and the spill directory all
// stay under .bench_build/ there.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// setupReps is how many times a run builds the stack to time set-up; the
// median is reported and the last stack serves the run.
const setupReps = 15

type config struct {
	w       workload
	seed    uint64
	seconds int
	trace   bool
	out     string // directory for trace artifacts and the spill directory
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: topk_flex, scan_exact or join_topk")
	seed := fs.Uint64("seed", 1, "seed of the request stream")
	seconds := fs.Int("seconds", 10, "measured time per run, in seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "servebench: need --workload topk_flex|scan_exact|join_topk, --seconds >= 1 and --trace 0|1")
		return 2
	}

	baseline := runtime.NumGoroutine()
	rep, err := run(config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, out: filepath.Join(".bench_build", "servebench")}, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 1
	}
	if err := waitGoroutines(baseline, 5*time.Second); err != nil {
		rep.fail(err)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(stdout, "FAIL %s\n", f)
	}
	line, err := rep.json()
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !rep.correct {
		return 1
	}
	return 0
}

// waitGoroutines waits until the goroutine count is back to baseline, which
// is when every server, client and connection goroutine has exited.
func waitGoroutines(baseline int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines still running, %d at start", n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// report is a run's outcome: the correctness verdict, request counts and
// metrics, in the order they were measured.
type report struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	failures          []string // the first few failures, for the log
}

type metric struct {
	name, unit string
	value      float64
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *report) fail(err error) {
	r.correct = false
	if len(r.failures) < 10 {
		r.failures = append(r.failures, err.Error())
	}
}

// count adds one measured request to the totals.
func (r *report) count(kind string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.fail(fmt.Errorf("%s: %w", kind, err))
	}
}

func (r *report) json() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	return string(b), err
}

// run executes one benchmark run: set-up, reference answers, warm-up, the
// measured phase, and teardown with its checks.
func run(cfg config, stdout io.Writer) (*report, error) {
	w := &cfg.w
	nproc := runtime.NumCPU()
	fmt.Fprintf(stdout, "provenance: commit=%s source_sha256=%s go=%s GOMAXPROCS=%d nproc=%d seed=%d seconds=%d trace=%t\n",
		commit(), sourceDigest("."), runtime.Version(), runtime.GOMAXPROCS(0), nproc, cfg.seed, cfg.seconds, cfg.trace)
	for _, x := range workloads() {
		fmt.Fprintf(stdout, "workload %s (%s, %d distinct requests): %s; loads %s\n",
			x.name, x.dataset, len(x.requests), x.why, x.loads)
	}

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	spillDir, err := os.MkdirTemp(cfg.out, "spill-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spillDir)

	var setups []float64
	var st *stack
	for i := range setupReps {
		runtime.GC()
		start := time.Now()
		st, err = startStack(w.dataset, nproc, spillDir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupReps-1 {
			if err := st.close(); err != nil {
				return nil, fmt.Errorf("set-up teardown: %w", err)
			}
		}
	}
	c := newClient(st.addr, nproc)

	rep := &report{correct: true}
	merr := measure(cfg, st, c, rep, stdout)

	c.close()
	if err := st.close(); err != nil {
		rep.fail(fmt.Errorf("shutdown: %w", err))
	}
	if err := st.checkStopped(spillDir); err != nil {
		rep.fail(err)
	}
	if merr != nil {
		// The run never got to measure: there is no result to report.
		if len(rep.failures) > 0 {
			merr = fmt.Errorf("%w; also %s", merr, strings.Join(rep.failures, "; "))
		}
		return nil, merr
	}
	if !cfg.trace {
		// setup_s is an end-to-end metric; it leads the list.
		rep.metrics = append([]metric{{"setup_s", "s", median(setups)}}, rep.metrics...)
	}
	fmt.Fprintf(stdout, "setup: median %.4f s over %d set-ups of dataset %s, engine and server\n",
		median(setups), setupReps, w.dataset)
	fmt.Fprintf(stdout, "requests: attempted=%d failed=%d error_rate=%g\n",
		rep.attempted, rep.failed, ratio(float64(rep.failed), float64(rep.attempted)))
	for _, m := range rep.metrics {
		fmt.Fprintf(stdout, "metric %s %g %s\n", m.name, m.value, m.unit)
	}
	return rep, nil
}

// measure computes the references, warms the server with one pass over
// every distinct request, then runs the measured phase.
func measure(cfg config, st *stack, c *client, rep *report, stdout io.Writer) error {
	ctx := context.Background()
	w := &cfg.w
	refs := make([]*answer, len(w.requests))
	for i, r := range w.requests {
		a, err := reference(ctx, st.eng, r, w.ordered)
		if err != nil {
			return err
		}
		refs[i] = a
	}
	for i, r := range w.requests {
		if s := c.do(ctx, i, r.path(), refs[i], w.ordered); s.err != nil {
			return fmt.Errorf("warm-up %s: %w", r.kind, s.err)
		}
	}
	runtime.GC()
	if cfg.trace {
		return layers(ctx, cfg, st, c, refs, rep, stdout)
	}
	endToEnd(ctx, cfg, c, refs, rep, stdout)
	return nil
}

// endToEnd runs the untraced closed loop and reports what its clients saw.
func endToEnd(ctx context.Context, cfg config, c *client, refs []*answer, rep *report, stdout io.Writer) {
	w := &cfg.w
	nproc := runtime.NumCPU()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	samples, elapsed := closedLoop(ctx, c, w, refs, newSequence(cfg.seed, len(w.requests)), nproc,
		time.Duration(cfg.seconds)*time.Second)
	runtime.ReadMemStats(&after)

	lat := map[int][]float64{}
	ttfr := map[int][]float64{}
	var all []float64
	good, rows := 0, 0
	for _, s := range samples {
		rep.count(w.requests[s.kind].kind, s.err)
		l := ms(s.latency)
		lat[s.kind] = append(lat[s.kind], l)
		all = append(all, l)
		if s.rows > 0 {
			ttfr[s.kind] = append(ttfr[s.kind], ms(s.ttfr))
		}
		rows += s.rows
		if s.err == nil {
			good++
		}
	}
	tail, beyond := percentile(all, w.tailPct)
	secs := elapsed.Seconds()
	fmt.Fprintf(stdout, "closed loop: %d clients, %d connections, %d requests in %.3f s; latency_tail_ms is p%g over %d samples (%d beyond)\n",
		nproc, nproc, len(samples), secs, w.tailPct, len(samples), beyond)
	if beyond < 10 {
		fmt.Fprintf(stdout, "note: fewer than 10 samples beyond p%g\n", w.tailPct)
	}
	// The medians are printed but not reported. On a shared host a short
	// cache-resident request runs at one of two speeds, depending on what
	// shares its core, and the share of slow time changes from minute to
	// minute. A kind's median falls between the two speeds: over ten runs
	// on a 2-CPU shared host its quartile spread on join_topk was 0.25 of
	// the median, against 0.10 for the mean of the fastest 5%, which stays
	// with the fast speed. The tail and the rates still carry the slow time.
	fmt.Fprintf(stdout, "latency_p50_ms %g ms, ttfr_p50_ms %g ms (median over request kinds of each kind's median)\n",
		kindMedian(lat), kindMedian(ttfr))
	rep.add("latency_fast5_ms", "ms", kindFast(lat))
	rep.add("latency_tail_ms", "ms", tail)
	rep.add("throughput_rps", "1/s", float64(good)/secs)
	rep.add("rows_per_s", "1/s", float64(rows)/secs)
	rep.add("alloc_kb_per_req", "KiB", ratio(float64(after.TotalAlloc-before.TotalAlloc)/1024, float64(len(samples))))
}

// sourceDigest hashes every go.mod and .go file under root, skipping
// hidden directories such as the build cache. It identifies the source of a
// run made from a checkout that is not a git repository.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir():
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		case d.Name() != "go.mod" && !strings.HasSuffix(d.Name(), ".go"):
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// commit names the source revision the binary was built from, when the
// build could see one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}
