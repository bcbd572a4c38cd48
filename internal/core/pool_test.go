package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"omega/internal/automaton"
	"omega/internal/l4all"
)

// TestEvalPoolMatchesFresh fuzzes pooled executions against fresh ones: one
// EvalPool is shared across every trial (so state really is recycled between
// graphs, modes and option sets) and each pooled run must emit the ranked
// sequence of a fresh run byte-identically, including the incremental
// distance-aware and disjunction drivers.
func TestEvalPoolMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	ont := testOnt()
	pool := NewEvalPool(8)
	res := []string{"p", "p.q", "p|q", "p.q-", "p*", "(p|q).r", "p|q|r"}
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(rng, ont)
		mode := []automaton.Mode{automaton.Exact, automaton.Approx, automaton.Relax, automaton.Flex}[rng.Intn(4)]
		c := conj([]string{"?X", "n0", "C1"}[rng.Intn(3)], res[rng.Intn(len(res))], []string{"?Y", "n2"}[rng.Intn(2)], mode)
		if !c.Subject.IsVar && !c.Object.IsVar {
			continue
		}
		q := &Query{Head: headFor(c), Conjuncts: []Conjunct{c}}
		opts := Options{
			DistanceAware: rng.Intn(2) == 0,
			Disjunction:   rng.Intn(2) == 0,
			MaxPsi:        []int32{0, 2, 1 << 20}[rng.Intn(3)],
			RareSide:      rng.Intn(4) == 0,
			Rewrite:       rng.Intn(4) == 0,
		}

		p, err := PrepareQuery(g, ont, q, opts)
		if err != nil {
			t.Fatalf("trial %d: PrepareQuery: %v", trial, err)
		}
		fresh, err := p.Exec(context.Background(), ExecOptions{})
		if err != nil {
			t.Fatalf("trial %d: fresh Exec: %v", trial, err)
		}
		want := drainExec(t, fresh, 1<<20)

		for rep := 0; rep < 2; rep++ {
			ex, err := p.Exec(context.Background(), ExecOptions{Pool: pool})
			if err != nil {
				t.Fatalf("trial %d rep %d: pooled Exec: %v", trial, rep, err)
			}
			got := drainExec(t, ex, 1<<20)
			if len(got) != len(want) {
				t.Fatalf("trial %d rep %d (%s opts=%+v): pooled emitted %d answers, fresh %d",
					trial, rep, c, opts, len(got), len(want))
			}
			for i := range got {
				if !sameQueryAnswer(got[i], want[i]) {
					t.Fatalf("trial %d rep %d (%s): answer %d diverged: pooled %+v, fresh %+v",
						trial, rep, c, i, got[i], want[i])
				}
			}
			if err := ex.Close(); err != nil {
				t.Fatalf("trial %d: Close: %v", trial, err)
			}
		}
	}
	s := pool.Stats()
	if s.Gets == 0 || s.Reuses == 0 {
		t.Fatalf("pool never engaged: %+v", s)
	}
	if s.Puts != s.Gets {
		t.Fatalf("pool leak: %d gets, %d puts", s.Gets, s.Puts)
	}
}

// TestEvalPoolRecycles pins the recycling behaviour: with a pool, the second
// execution's state bundle is the first one's, reset — observed through the
// pool counters and through a steady-state allocation check.
func TestEvalPoolRecycles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ont := testOnt()
	g := randomGraph(rng, ont)
	q := &Query{Head: []string{"X", "Y"}, Conjuncts: []Conjunct{conj("?X", "p.q", "?Y", automaton.Approx)}}
	p, err := PrepareQuery(g, ont, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewEvalPool(2)
	for i := 0; i < 5; i++ {
		ex, err := p.Exec(context.Background(), ExecOptions{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		drainExec(t, ex, 1<<20)
		if err := ex.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s := pool.Stats()
	if s.Misses != 1 {
		t.Fatalf("Misses = %d, want 1 (a single bundle serves every sequential exec)", s.Misses)
	}
	if s.Reuses != 4 {
		t.Fatalf("Reuses = %d, want 4", s.Reuses)
	}
	if s.Idle != 1 {
		t.Fatalf("Idle = %d, want 1", s.Idle)
	}
}

// TestEvalPoolAbandonedExecReturnsState: a pooled execution abandoned
// mid-stream (Close before exhaustion) must still hand its bundle back.
func TestEvalPoolAbandonedExecReturnsState(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ont := testOnt()
	g := randomGraph(rng, ont)
	q := &Query{Head: []string{"X", "Y"}, Conjuncts: []Conjunct{conj("?X", "p|q|r", "?Y", automaton.Approx)}}
	p, err := PrepareQuery(g, ont, q, Options{DistanceAware: true})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewEvalPool(4)
	for i := 0; i < 3; i++ {
		ex, err := p.Exec(context.Background(), ExecOptions{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ex.Next(); err != nil {
			t.Fatal(err)
		}
		if err := ex.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s := pool.Stats()
	if s.Puts != s.Gets {
		t.Fatalf("abandoned executions leaked state: %d gets, %d puts", s.Gets, s.Puts)
	}
}

// TestEvalPoolBypassedForSpillAndRefDict: configurations whose state is not
// recyclable must run correctly with a pool set — and never touch it.
func TestEvalPoolBypassedForSpillAndRefDict(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ont := testOnt()
	g := randomGraph(rng, ont)
	q := &Query{Head: []string{"X", "Y"}, Conjuncts: []Conjunct{conj("?X", "p.q", "?Y", automaton.Approx)}}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"spill", Options{SpillThreshold: 4, SpillDir: t.TempDir()}},
		{"refdict", Options{RefDict: true}},
	} {
		p, err := PrepareQuery(g, ont, q, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := p.Exec(context.Background(), ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		wantSeq := drainExec(t, want, 1<<20)

		pool := NewEvalPool(4)
		ex, err := p.Exec(context.Background(), ExecOptions{Pool: pool})
		if err != nil {
			t.Fatalf("%s: pooled Exec: %v", tc.name, err)
		}
		got := drainExec(t, ex, 1<<20)
		if len(got) != len(wantSeq) {
			t.Fatalf("%s: %d answers with pool set, %d without", tc.name, len(got), len(wantSeq))
		}
		if s := pool.Stats(); s.Gets != 0 {
			t.Fatalf("%s: pool engaged for non-recyclable state: %+v", tc.name, s)
		}
	}
}

// TestEvalPoolOversizedBundleDiscarded pins the byte cap: a bundle whose
// reset footprint exceeds SetBundleCapBytes must be dropped instead of
// recycled (counted under both Discarded and Oversized), so one giant query
// cannot permanently pin its high-water memory in a pooled slot. Lifting the
// cap restores recycling.
func TestEvalPoolOversizedBundleDiscarded(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ont := testOnt()
	g := randomGraph(rng, ont)
	q := &Query{Head: []string{"X", "Y"}, Conjuncts: []Conjunct{conj("?X", "p.q", "?Y", automaton.Approx)}}
	p, err := PrepareQuery(g, ont, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewEvalPool(4)
	pool.SetBundleCapBytes(1) // any real bundle exceeds this

	run := func() {
		t.Helper()
		ex, err := p.Exec(context.Background(), ExecOptions{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		drainExec(t, ex, 1<<20)
		if err := ex.Close(); err != nil {
			t.Fatal(err)
		}
	}

	run()
	s := pool.Stats()
	if s.Oversized != 1 || s.Discarded != 1 {
		t.Fatalf("Oversized = %d, Discarded = %d, want 1, 1", s.Oversized, s.Discarded)
	}
	if s.Idle != 0 {
		t.Fatalf("Idle = %d after oversized discard, want 0", s.Idle)
	}

	// Nothing was retained, so the next execution allocates fresh again.
	run()
	if s = pool.Stats(); s.Misses != 2 {
		t.Fatalf("Misses = %d, want 2 (oversized bundle must not be reused)", s.Misses)
	}

	// With the cap disabled the same workload's bundle is retained once more.
	pool.SetBundleCapBytes(-1)
	run()
	if s = pool.Stats(); s.Idle != 1 {
		t.Fatalf("Idle = %d after cap disabled, want 1", s.Idle)
	}
	if s.Oversized != 2 {
		t.Fatalf("Oversized = %d, want 2 (only the capped puts count)", s.Oversized)
	}
}

// TestEvalPoolParkedFrontierAllocFree pins the steady-state allocation of a
// pooled, distance-aware APPROX execution that parks tuples over several ψ
// phases. The parked frontier is the bulk of such a bundle: re-injection
// swaps each parked bucket with the dictionary's drained one instead of
// dropping the latter, so after warm-up neither structure regrows. Before
// that hand-back this execution allocated the better part of a megabyte each
// time; the bound leaves room only for per-execution bookkeeping.
func TestEvalPoolParkedFrontierAllocFree(t *testing.T) {
	g, ont := l4all.Generate(l4all.L1)
	c := conj("Librarians", "type-.job-.next", "?X", automaton.Approx)
	p, err := PrepareQuery(g, ont, &Query{Head: headFor(c), Conjuncts: []Conjunct{c}}, Options{DistanceAware: true})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewEvalPool(1)
	run := func() Stats {
		ex, err := p.Exec(context.Background(), ExecOptions{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		if got := drainExec(t, ex, 80); len(got) != 80 {
			t.Fatalf("emitted %d answers, want 80", len(got))
		}
		s := ex.Stats()
		if err := ex.Close(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Two warm-up runs: the first grows the bundle, the second grows the
	// other side of every bucket swap.
	s := run()
	run()
	if s.Phases < 2 || s.Reinjected == 0 {
		t.Fatalf("workload does not park and re-inject (Phases=%d Reinjected=%d)", s.Phases, s.Reinjected)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perExec := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes allocated per pooled execution", perExec)
	const bound = 32 << 10
	if perExec > bound {
		t.Fatalf("pooled execution allocated %d bytes, want <= %d (deferred %d tuples over %d phases)",
			perExec, bound, s.Deferred, s.Phases)
	}
	if st := pool.Stats(); st.Misses != 1 || st.Oversized != 0 {
		t.Fatalf("pool did not recycle one bundle throughout: %+v", st)
	}
}

// TestPooledSingleSourceVisitedStaysCompact pins the compact visited form
// for a single-source ranked execution whose parks outgrow the hash table's
// trust threshold. Without the declared shape the table would jump to its
// hinted size, at least 16 × 4/3 bytes per product-graph cell; with it the
// bundle keeps one byte per cell next to a 1,024-entry table.
func TestPooledSingleSourceVisitedStaysCompact(t *testing.T) {
	g, ont := l4all.Generate(l4all.L1)
	c := conj("Librarians", "type-.job-.next", "?X", automaton.Approx)
	p, err := PrepareQuery(g, ont, &Query{Head: headFor(c), Conjuncts: []Conjunct{c}}, Options{DistanceAware: true})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewEvalPool(1)
	ex, err := p.Exec(context.Background(), ExecOptions{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	drainExec(t, ex, 80)
	s := ex.Stats()
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Deferred < 4<<10 {
		t.Fatalf("workload parks %d tuples, too few to outgrow the small table", s.Deferred)
	}
	var states int
	for _, cp := range p.def.plans {
		for _, aut := range cp.auts {
			states = max(states, int(aut.NumStates))
		}
	}
	cells := int64(g.NumNodes()) * int64(states)
	got := pool.free[0].visited.Bytes()
	t.Logf("visited set holds %d bytes for %d product-graph cells", got, cells)
	if got > cells+1024*16 {
		t.Fatalf("visited set holds %d bytes, want <= %d (cells plus a 1,024-entry table)", got, cells+1024*16)
	}
}
