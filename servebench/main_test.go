package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	slices.Sort(endToEnd)
	slices.Sort(perLayer)
	return endToEnd, perLayer
}

// children lists the process's child processes (Linux only).
func children(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("/proc/self/task/*/children")
	if err != nil || len(files) == 0 {
		t.Skip("no /proc children files on this system")
	}
	var out []string
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, strings.Fields(string(b))...)
	}
	return out
}

// TestRunsLeaveNothingBehind runs every workload briefly, untraced and
// traced, and checks that each run is correct, reports exactly the metrics
// BENCHMARK.json declares, starts no process, and leaves no goroutine,
// listener, in-flight request or spill directory behind.
func TestRunsLeaveNothingBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			name := w.name + "/untraced"
			want := endToEnd
			if trace {
				name, want = w.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				out := t.TempDir()
				rep, err := run(config{w: w, seed: 7, seconds: 1, trace: trace, out: out}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
					t.Fatalf("correct=%t attempted=%d failed=%d: %v", rep.correct, rep.attempted, rep.failed, rep.failures)
				}
				var got []string
				for _, m := range rep.metrics {
					got = append(got, m.name)
				}
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Errorf("metrics %v, BENCHMARK.json declares %v", got, want)
				}
				if c := children(t); len(c) > 0 {
					t.Errorf("child processes running: %v", c)
				}
				if err := waitGoroutines(baseline, 5*time.Second); err != nil {
					t.Error(err)
				}
				ents, err := os.ReadDir(out)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range ents {
					if strings.HasPrefix(e.Name(), "spill-") {
						t.Errorf("spill directory left behind: %s", e.Name())
					}
				}
			})
		}
	}
}

// TestStackStops checks what closing the stack promises after it has
// served requests: the listener refuses connections, nothing is in flight,
// the spill directory is empty and every goroutine has exited.
func TestStackStops(t *testing.T) {
	baseline := runtime.NumGoroutine()
	spill := t.TempDir()
	w := joinTopk()
	st, err := startStack(w.dataset, 2, spill)
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(st.addr, 2)
	r := w.requests[0]
	want, err := reference(t.Context(), st.eng, r, true)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.do(t.Context(), 0, r.path(), want, true); s.err != nil || s.rows != want.rows {
		t.Fatalf("request: rows=%d err=%v", s.rows, s.err)
	}
	c.close()
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	if conn, err := net.DialTimeout("tcp", st.addr, time.Second); err == nil {
		conn.Close()
		t.Error("listener still accepts connections")
	}
	if n := st.srv.Scheduler().Stats().InFlight; n != 0 {
		t.Errorf("%d requests in flight", n)
	}
	if err := st.checkStopped(spill); err != nil {
		t.Error(err)
	}
	if err := waitGoroutines(baseline, 5*time.Second); err != nil {
		t.Error(err)
	}
}

// TestFailedRunLeavesNothingBehind checks that a run that cannot measure
// (here, a request the engine rejects) reports an error, which the command
// turns into a non-zero exit without a result line, and still shuts down.
func TestFailedRunLeavesNothingBehind(t *testing.T) {
	baseline := runtime.NumGoroutine()
	out := t.TempDir()
	w := workload{name: "broken", dataset: "L1", requests: []request{{kind: "bad", text: "(?X) <- (", limit: 1}}}
	if _, err := run(config{w: w, seed: 1, seconds: 1, out: out}, io.Discard); err == nil {
		t.Fatal("run with an invalid query succeeded")
	}
	if err := waitGoroutines(baseline, 5*time.Second); err != nil {
		t.Error(err)
	}
	if ents, _ := os.ReadDir(out); len(ents) != 0 {
		t.Errorf("left behind: %v", ents)
	}
}

func TestBadFlagsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "join_topk", "--seconds", "0"},
		{"--workload", "join_topk", "--trace", "2"},
		{"--bogus"},
	} {
		var out bytes.Buffer
		if code := realMain(args, &out, io.Discard); code == 0 {
			t.Errorf("%v: exit code 0", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q", args, out.String())
		}
	}
}

// TestReadStreamRejects checks that the correctness gate catches each way an
// answer stream can be wrong.
func TestReadStreamRejects(t *testing.T) {
	row := func(n, d int) string {
		return `{"vars":["X"],"labels":["a"],"nodes":[` + strconv.Itoa(n) + `],"dist":` + strconv.Itoa(d) + "}\n"
	}
	done := func(rows int) string {
		return `{"done":true,"request_id":"r","rows":` + strconv.Itoa(rows) + `,"stats":{}}` + "\n"
	}
	want := &answer{hash: fnvOffset}
	for _, r := range [][2]int64{{3, 0}, {5, 1}} {
		want.rows++
		want.hash = hashRow(want.hash, []int64{r[0]}, r[1])
		want.flat = append(want.flat, r[0], r[1])
	}
	for _, c := range []struct {
		name, body string
		ordered    bool
		ok         bool
	}{
		{"correct", row(3, 0) + row(5, 1) + done(2), true, true},
		{"correct unordered check", row(3, 0) + row(5, 1) + done(2), false, true},
		{"swapped rows", row(5, 1) + row(3, 0) + done(2), true, false},
		{"swapped rows, hash", row(5, 1) + row(3, 0) + done(2), false, false},
		{"wrong dist", row(3, 0) + row(5, 2) + done(2), false, false},
		{"missing row", row(3, 0) + done(1), true, false},
		{"done count", row(3, 0) + row(5, 1) + done(3), true, false},
		{"no done line", row(3, 0) + row(5, 1), true, false},
		{"error line", row(3, 0) + `{"error":"boom","request_id":"r","rows":1}` + "\n", true, false},
		{"after done", row(3, 0) + row(5, 1) + done(2) + row(7, 2), true, false},
	} {
		res := readStream(strings.NewReader(c.body), time.Now(), want, c.ordered)
		if (res.err == nil) != c.ok {
			t.Errorf("%s: err=%v, want ok=%t", c.name, res.err, c.ok)
		}
	}
}

func TestKindFast(t *testing.T) {
	byKind := map[int][]float64{0: {7}, 1: nil}
	for i := 20; i >= 1; i-- {
		byKind[2] = append(byKind[2], float64(i)) // 5% of 20: the fastest one
	}
	for i := 140; i > 100; i-- {
		byKind[3] = append(byKind[3], float64(i)) // 5% of 40: the fastest two
	}
	// Per kind: 7, 1 and 101.5; the empty kind is skipped.
	if got := kindFast(byKind); got != 7 {
		t.Errorf("kindFast = %g, want 7", got)
	}
	if got := kindFast(map[int][]float64{0: {3, 1, 2}}); got != 1 {
		t.Errorf("kindFast of three samples = %g, want 1", got)
	}
}
