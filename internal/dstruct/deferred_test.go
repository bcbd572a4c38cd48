package dstruct

import (
	"math/rand"
	"path/filepath"
	"testing"

	"omega/internal/graph"
)

func TestDeferredFIFOWithinBucket(t *testing.T) {
	df := NewDeferred(false)
	for i := 0; i < 6; i++ {
		df.Add(tup(i, i, 0, 3, i%2 == 0))
	}
	df.Add(tup(9, 9, 0, 7, false))
	if df.Len() != 7 {
		t.Fatalf("Len = %d, want 7", df.Len())
	}
	var got []Tuple
	df.Drain(3, func(x Tuple) { got = append(got, x) })
	if len(got) != 6 {
		t.Fatalf("Drain(3) yielded %d tuples, want 6", len(got))
	}
	// Final tuples first (they pop first from D_R, so they are inserted
	// first), then non-final; generation order within each class.
	want := []graph.NodeID{0, 2, 4, 1, 3, 5}
	for i, x := range got {
		if x.V != want[i] {
			t.Fatalf("drain order = %v at %d, want V=%d (finals FIFO, then non-finals FIFO)", x.V, i, want[i])
		}
	}
	if df.Len() != 1 {
		t.Fatalf("Len after drain = %d, want 1", df.Len())
	}
	if md, ok := df.MinDistance(); !ok || md != 7 {
		t.Fatalf("MinDistance = %d,%v; want 7,true", md, ok)
	}
}

func TestDeferredNoFinalFirstKeepsInterleaving(t *testing.T) {
	df := NewDeferred(true)
	for i := 0; i < 6; i++ {
		df.Add(tup(i, i, 0, 3, i%2 == 0))
	}
	var got []Tuple
	df.Drain(3, func(x Tuple) { got = append(got, x) })
	for i, x := range got {
		if int(x.V) != i {
			t.Fatalf("noFinalFirst drain must keep pure generation order, got V=%d at %d", x.V, i)
		}
	}
}

func TestDeferredDrainAscendingBuckets(t *testing.T) {
	df := NewDeferred(false)
	for _, d := range []int{5, 1, 9, 1, 5, 2} {
		df.Add(tup(d, d, 0, d, false))
	}
	last := int32(-1)
	df.Drain(9, func(x Tuple) {
		if x.D < last {
			t.Fatalf("drain emitted distance %d after %d", x.D, last)
		}
		last = x.D
	})
	if df.Len() != 0 {
		t.Fatalf("Len after full drain = %d", df.Len())
	}
	if _, ok := df.MinDistance(); ok {
		t.Fatal("MinDistance on empty frontier reported a value")
	}
}

func TestDeferredDrainBound(t *testing.T) {
	df := NewDeferred(false)
	for d := 0; d < 10; d++ {
		df.Add(tup(d, d, 0, d, false))
	}
	n := 0
	df.Drain(4, func(x Tuple) {
		if x.D > 4 {
			t.Fatalf("Drain(4) emitted distance %d", x.D)
		}
		n++
	})
	if n != 5 || df.Len() != 5 {
		t.Fatalf("Drain(4): emitted %d, remaining %d; want 5, 5", n, df.Len())
	}
	if md, ok := df.MinDistance(); !ok || md != 5 {
		t.Fatalf("MinDistance = %d,%v; want 5,true", md, ok)
	}
}

func TestDeferredOverflowDistances(t *testing.T) {
	df := NewDeferred(false)
	huge := int32(maxBucketDist + 100)
	df.Add(Tuple{V: 1, N: 1, D: huge})
	df.Add(Tuple{V: 2, N: 2, D: 3})
	if md, ok := df.MinDistance(); !ok || md != 3 {
		t.Fatalf("MinDistance = %d,%v; want 3,true", md, ok)
	}
	var got []Tuple
	df.Drain(3, func(x Tuple) { got = append(got, x) })
	if len(got) != 1 || got[0].D != 3 {
		t.Fatalf("Drain(3) = %+v, want the in-range tuple only", got)
	}
	if md, ok := df.MinDistance(); !ok || md != huge {
		t.Fatalf("MinDistance after drain = %d,%v; want %d,true", md, ok, huge)
	}
	got = nil
	df.Drain(huge, func(x Tuple) { got = append(got, x) })
	if len(got) != 1 || got[0].D != huge {
		t.Fatalf("overflow drain = %+v", got)
	}
	if df.Len() != 0 {
		t.Fatalf("Len = %d after draining everything", df.Len())
	}
}

// Property: injecting a deferred frontier into a Dict produces exactly the
// pop sequence of adding the same tuples one by one in generation order —
// the equivalence the incremental distance-aware mode rests on. Exercises
// both the zero-copy bucket adoption (empty Dict) and per-tuple re-adds
// (RefDict).
func TestQuickDeferredInjectMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		noFF := rng.Intn(2) == 0
		df := NewDeferred(noFF)
		replay := NewDict()
		if noFF {
			replay = NewDictNoFinalFirst()
		}
		var gen []Tuple
		for i := 0; i < 200; i++ {
			tt := tup(i, i, rng.Intn(3), rng.Intn(10), rng.Intn(3) == 0)
			gen = append(gen, tt)
			df.Add(tt)
		}
		for _, tt := range gen {
			replay.Add(tt)
		}
		var target TupleDict = NewDict()
		if noFF {
			target = NewDictNoFinalFirst()
		}
		if rng.Intn(3) == 0 {
			target = NewRefDict(noFF)
		}
		if n := target.Inject(df, 9); n != 200 {
			t.Fatalf("Inject admitted %d tuples, want 200", n)
		}
		if df.Len() != 0 {
			t.Fatalf("frontier holds %d tuples after full inject", df.Len())
		}
		for i := 0; i < 200; i++ {
			a, ok1 := target.Remove()
			b, ok2 := replay.Remove()
			if !ok1 || !ok2 {
				t.Fatalf("pop %d: availability %v vs %v", i, ok1, ok2)
			}
			if a != b {
				t.Fatalf("trial %d pop %d diverged: inject %+v, replay %+v", trial, i, a, b)
			}
		}
	}
}

// Property: a spilling frontier drains exactly the same sequence as a purely
// resident one under interleaved Add/Drain, and its spill files disappear on
// Close.
func TestQuickDeferredSpillMatchesResident(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 15; trial++ {
		dir := t.TempDir()
		sp, err := NewDeferredSpill(1+rng.Intn(6), dir, false)
		if err != nil {
			t.Fatal(err)
		}
		res := NewDeferred(false)
		psi := int32(-1)
		for op := 0; op < 200; op++ {
			if rng.Intn(4) != 0 {
				d := int32(rng.Intn(12))
				if d <= psi {
					continue
				}
				tt := tup(op, op, rng.Intn(3), int(d), rng.Intn(4) == 0)
				sp.Add(tt)
				res.Add(tt)
			} else {
				psi += int32(rng.Intn(4))
				var a, b []Tuple
				sp.Drain(psi, func(x Tuple) { a = append(a, x) })
				res.Drain(psi, func(x Tuple) { b = append(b, x) })
				if len(a) != len(b) {
					t.Fatalf("trial %d: spilling drained %d tuples, resident %d (err=%v)", trial, len(a), len(b), sp.Err())
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("trial %d drain pos %d diverged: %+v vs %+v", trial, i, a[i], b[i])
					}
				}
			}
		}
		if sp.Err() != nil {
			t.Fatal(sp.Err())
		}
		if sp.Len() != res.Len() || sp.Resident() > sp.Len() {
			t.Fatalf("bookkeeping diverged: spill len=%d resident=%d vs %d", sp.Len(), sp.Resident(), res.Len())
		}
		if err := sp.Close(); err != nil {
			t.Fatal(err)
		}
		if files, _ := filepath.Glob(filepath.Join(dir, "*", "*.spill")); len(files) != 0 {
			t.Fatalf("spill files survive Close: %v", files)
		}
	}
}

func TestDeferredSpillActuallySpills(t *testing.T) {
	sp, err := NewDeferredSpill(4, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		sp.Add(tup(i, i, 0, 1+i%7, false))
	}
	if sp.Spills() == 0 {
		t.Fatal("threshold 4 with 40 parked tuples never spilled")
	}
	if sp.Resident() > 4 {
		t.Fatalf("Resident = %d, want ≤ threshold", sp.Resident())
	}
	n := 0
	last := int32(-1)
	sp.Drain(7, func(x Tuple) {
		if x.D < last {
			t.Fatalf("drain order broke: %d after %d", x.D, last)
		}
		last = x.D
		n++
	})
	if n != 40 {
		t.Fatalf("drained %d tuples, want 40", n)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved Add/Drain preserves per-class generation order and
// never loses or duplicates a tuple.
func TestQuickDeferredGenerationOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		df := NewDeferred(false)
		type class struct {
			d     int32
			final bool
		}
		seq := make(map[class][]graph.NodeID)
		added, drained := 0, 0
		nextV := graph.NodeID(0)
		psi := int32(-1)
		for op := 0; op < 300; op++ {
			if rng.Intn(4) != 0 {
				d := int32(rng.Intn(12))
				if d <= psi { // deferral only ever parks distances beyond ψ
					continue
				}
				f := rng.Intn(4) == 0
				df.Add(Tuple{V: nextV, N: nextV, D: d, Final: f})
				seq[class{d, f}] = append(seq[class{d, f}], nextV)
				nextV++
				added++
			} else {
				psi += int32(rng.Intn(3))
				df.Drain(psi, func(x Tuple) {
					k := class{x.D, x.Final}
					if len(seq[k]) == 0 || x.V != seq[k][0] {
						t.Fatalf("class %+v emitted V=%d out of generation order", k, x.V)
					}
					seq[k] = seq[k][1:]
					drained++
				})
			}
		}
		df.Drain(1<<20, func(Tuple) { drained++ })
		if drained != added {
			t.Fatalf("added %d tuples, drained %d", added, drained)
		}
	}
}

// parkRound parks a fixed workload of parked buckets at distances 1..4,
// injects it into dd, drains dd, and resets both structures — one phase step
// of a pooled distance-aware execution, reduced to the two structures.
func parkRound(dd *Dict, df *Deferred) {
	for i := 0; i < 300; i++ {
		df.Add(tup(i, i, i%3, 1+i%4, i%5 == 0))
	}
	dd.Inject(df, 4)
	for {
		if _, ok := dd.Remove(); !ok {
			break
		}
	}
	dd.Reset(false)
	df.Reset(false)
}

// TestInjectHandsCapacityBack pins the bucket swap of Dict.Inject: the
// frontier gets the dictionary's drained slices back, so after Reset both
// structures keep their capacity, a steady round allocates nothing, and no
// frontier bucket aliases a dictionary bucket.
func TestInjectHandsCapacityBack(t *testing.T) {
	dd, df := NewDict(), NewDeferred(false)
	// Give the dictionary drained capacity of its own first, as the phase
	// that exhausted before a re-injection would have.
	for i := 0; i < 40; i++ {
		dd.Add(tup(i, i, 0, 1+i%4, i%3 == 0))
	}
	for {
		if _, ok := dd.Remove(); !ok {
			break
		}
	}
	dictCap := map[int][2]int{}
	for d := 1; d <= 4; d++ {
		b := &dd.buckets[d]
		dictCap[d] = [2]int{cap(b.final), cap(b.nonFinal)}
	}
	for i := 0; i < 300; i++ {
		df.Add(tup(i, i, i%3, 1+i%4, i%5 == 0))
	}
	parkCap := map[int][2]int{}
	for d := 1; d <= 4; d++ {
		b := &df.buckets[d]
		parkCap[d] = [2]int{cap(b.final), cap(b.nonFinal)}
	}
	dd.Inject(df, 4)
	for d := 1; d <= 4; d++ {
		if got := [2]int{cap(df.buckets[d].final), cap(df.buckets[d].nonFinal)}; got != dictCap[d] {
			t.Fatalf("bucket %d: frontier capacity %v after Inject, want the dictionary's drained %v", d, got, dictCap[d])
		}
		if got := [2]int{cap(dd.buckets[d].final), cap(dd.buckets[d].nonFinal)}; got != parkCap[d] {
			t.Fatalf("bucket %d: dictionary capacity %v after Inject, want the adopted %v", d, got, parkCap[d])
		}
	}

	// Write through each side and read the other: the frontier's new tuples
	// must not show up in (or overwrite) the adopted dictionary buckets, nor
	// the dictionary's new tuples in the frontier.
	sentinel := func(i, d int) Tuple { return tup(1000+i, 1000+i, 7, d, i%3 == 0) }
	for i := 0; i < 80; i++ {
		df.Add(sentinel(i, 1+i%4))
		dd.Add(sentinel(100+i, 1+i%4))
	}
	parked := 0
	for {
		tu, ok := dd.Remove()
		if !ok {
			break
		}
		if tu.S == 7 && tu.V < 1100 {
			t.Fatalf("dictionary popped frontier tuple %+v", tu)
		}
		if tu.S != 7 {
			parked++
		}
	}
	if parked != 300 {
		t.Fatalf("dictionary popped %d adopted tuples, want 300 intact", parked)
	}
	own := 0
	for d := 1; d <= 4; d++ {
		for _, list := range [][]Tuple{df.buckets[d].final, df.buckets[d].nonFinal} {
			for _, tu := range list {
				if tu.S != 7 || tu.V >= 1100 {
					t.Fatalf("frontier holds foreign tuple %+v", tu)
				}
				own++
			}
		}
	}
	if own != 80 {
		t.Fatalf("frontier holds %d of its 80 parked tuples", own)
	}

	dd.Reset(false)
	df.Reset(false)
	for d := 1; d <= 4; d++ {
		if cap(dd.buckets[d].final) == 0 || cap(dd.buckets[d].nonFinal) == 0 ||
			cap(df.buckets[d].final) == 0 || cap(df.buckets[d].nonFinal) == 0 {
			t.Fatalf("bucket %d lost capacity across Reset: dict %d/%d, frontier %d/%d", d,
				cap(dd.buckets[d].final), cap(dd.buckets[d].nonFinal),
				cap(df.buckets[d].final), cap(df.buckets[d].nonFinal))
		}
	}
	// Two rounds grow both sides of every swap; from then on a round of
	// parking, re-injection and draining allocates nothing.
	parkRound(dd, df)
	parkRound(dd, df)
	if allocs := testing.AllocsPerRun(10, func() { parkRound(dd, df) }); allocs != 0 {
		t.Fatalf("steady park/inject/drain round allocated %v times, want 0", allocs)
	}
}
