package omega

import (
	"context"
	"slices"
	"testing"

	"omega/internal/l4all"
)

// TestL4AllCorpusDistanceAwareDifferential runs the full L4All study corpus
// under the distance-aware mode with the resumable incremental driver and
// with the retained per-phase restart reference, and requires byte-identical
// ranked answer sequences: same rows, same distances, same order. This is
// the corpus-level guarantee that resuming a warm evaluator across ψ phases
// changes the work performed, never the emission.
func TestL4AllCorpusDistanceAwareDifferential(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	for _, q := range l4all.Queries() {
		for _, mode := range []Mode{Approx, Relax, Flex} {
			inc := collectAnswers(t, g, ont, q.Text, mode, Options{DistanceAware: true}, 500)
			res := collectAnswers(t, g, ont, q.Text, mode, Options{DistanceAware: true, DistanceRestart: true}, 500)
			if len(inc) != len(res) {
				t.Fatalf("%s/%v: incremental emitted %d answers, restart reference %d",
					q.ID, mode, len(inc), len(res))
			}
			for i := range inc {
				if !sameRow(inc[i], res[i]) {
					t.Fatalf("%s/%v answer %d differs:\n incremental: %+v\n restart:     %+v",
						q.ID, mode, i, inc[i], res[i])
				}
			}
		}
	}
}

// TestL4AllCorpusDistanceAwareTighterPsi repeats the differential with a
// non-default ψ cap and non-unit costs, so multi-φ grid stepping and the
// truncation boundary are exercised on real workloads too.
func TestL4AllCorpusDistanceAwareTighterPsi(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	opts := Options{
		DistanceAware: true,
		MaxPsi:        4,
		Edit:          EditCosts{Insert: 2, Delete: 3, Substitute: 2},
		Relax:         RelaxCosts{Beta: 2, Gamma: 5},
	}
	ropts := opts
	ropts.DistanceRestart = true
	for _, q := range l4all.Queries() {
		for _, mode := range []Mode{Approx, Relax} {
			inc := collectAnswers(t, g, ont, q.Text, mode, opts, 500)
			res := collectAnswers(t, g, ont, q.Text, mode, ropts, 500)
			if len(inc) != len(res) {
				t.Fatalf("%s/%v: incremental emitted %d answers, restart reference %d",
					q.ID, mode, len(inc), len(res))
			}
			for i := range inc {
				if !sameRow(inc[i], res[i]) {
					t.Fatalf("%s/%v answer %d differs:\n incremental: %+v\n restart:     %+v",
						q.ID, mode, i, inc[i], res[i])
				}
			}
		}
	}
}

// TestL2TopKFlexDominanceDifferential is the differential for the serving
// benchmark's topk_flex mix — the study queries Q3 and Q8–Q12 under APPROX
// and RELAX, top 100 on L2 — where parking is heaviest: the incremental
// driver skips every parked copy of a (v, n, s) triple that a strictly
// cheaper pending copy dominates, and recycles its parked frontier through
// one EvalPool. Both executions of each request (the second on a recycled
// bundle) must emit exactly the ordered rows of the restart reference, which
// never parks. Skipped under -short: the restart reference re-runs every
// phase from scratch on the larger graph.
func TestL2TopKFlexDominanceDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("L2 restart reference is slow")
	}
	g, ont := datasets().L4All(l4all.L2)
	inc := NewEngine(g, ont).WithOptions(Options{DistanceAware: true})
	ref := NewEngine(g, ont).WithOptions(Options{DistanceAware: true, DistanceRestart: true})
	pool := NewEvalPool(1)
	collect := func(eng *Engine, text string, mode Mode, p *EvalPool) ([]Row, Stats) {
		t.Helper()
		pq, err := eng.PrepareText(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		rows, err := pq.Exec(context.Background(), ExecOptions{Mode: ModeOverride(mode), Pool: p})
		if err != nil {
			t.Fatalf("%q: Exec: %v", text, err)
		}
		defer rows.Close()
		out, err := rows.Collect(100)
		if err != nil {
			t.Fatalf("%q: Collect: %v", text, err)
		}
		return out, rows.Stats()
	}
	for _, q := range l4all.StudyQueries() {
		for _, mode := range []Mode{Approx, Relax} {
			want, _ := collect(ref, q.Text, mode, nil)
			for rep := 0; rep < 2; rep++ {
				got, s := collect(inc, q.Text, mode, pool)
				if len(got) != len(want) {
					t.Fatalf("%s/%v rep %d: %d rows, restart reference %d", q.ID, mode, rep, len(got), len(want))
				}
				for i := range got {
					if got[i].Dist != want[i].Dist || !slices.Equal(got[i].Labels, want[i].Labels) {
						t.Fatalf("%s/%v rep %d row %d: %v, restart reference %v", q.ID, mode, rep, i, got[i], want[i])
					}
				}
				if s.Reinjected > s.Deferred {
					t.Fatalf("%s/%v: reinjected %d > deferred %d", q.ID, mode, s.Reinjected, s.Deferred)
				}
			}
		}
	}
	if s := pool.Stats(); s.Misses != 1 || s.Oversized != 0 {
		t.Fatalf("pool did not recycle one bundle throughout: %+v", s)
	}
}
