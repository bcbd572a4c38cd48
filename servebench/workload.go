package main

import (
	"math/rand/v2"
	"net/url"
	"strconv"
	"sync"
)

// request is one distinct request of a workload: a query text sent as the q
// parameter, with an optional row limit (0 asks for every answer).
type request struct {
	kind  string // stable name, used to group samples
	text  string
	limit int
}

// path is the request's /query URL path and query string.
func (r request) path() string {
	v := url.Values{"q": {r.text}}
	if r.limit > 0 {
		v.Set("limit", strconv.Itoa(r.limit))
	}
	return "/query?" + v.Encode()
}

// workload is one traffic mix: a dataset, its distinct requests, how their
// answers are checked, and why the mix is in the benchmark.
type workload struct {
	name    string
	dataset string // L4All scale
	why     string // the reason the workload exists
	loads   string // the layer it loads
	// ordered: answers are compared row by row, (nodes, dist) in order.
	// Otherwise the row count and an order-sensitive hash are compared.
	ordered bool
	// tailPct is the percentile reported as latency_tail_ms. It is fixed per
	// workload, so the metric keeps its meaning when a change moves the
	// request rate. A percentile with only a few samples beyond it moves
	// with a handful of slow requests, so each leaves at least 30 beyond it
	// in a 30 s run on a 2-CPU shared host, slow stretches included:
	// topk_flex and join_topk p95 (about 100 or more), scan_exact p90
	// (about 35).
	tailPct  float64
	requests []request
}

// flexQueries are the Figure 7/8 study queries (Q3, Q8–Q12), written
// without an operator; the workload applies APPROX and RELAX to each.
var flexQueries = []struct{ id, head, body string }{
	{"Q3", "(?X)", "(Software Professionals, type-.job-, ?X)"},
	{"Q8", "(?X)", "(Mathematical and Computer Sciences, type.prereq+, ?X)"},
	{"Q9", "(?X)", "(Alumni_0_Episode_1, prereq*.next+.prereq, ?X)"},
	{"Q10", "(?X)", "(Librarians, type-, ?X)"},
	{"Q11", "(?X)", "(Librarians, type-.job-.next, ?X)"},
	{"Q12", "(?X)", "(BTEC Introductory Diploma, level-.qualif-.prereq, ?X)"},
}

func topkFlex() workload {
	w := workload{
		name:    "topk_flex",
		dataset: "L2",
		why:     "the paper's headline operation: APPROX/RELAX answers ranked by distance, top 100 (Figures 7/8 queries)",
		loads:   "ranked GetNext, D_R and the APPROX/RELAX automata (core, dstruct, automaton)",
		ordered: true,
		tailPct: 95,
	}
	for _, q := range flexQueries {
		for _, op := range []string{"APPROX", "RELAX"} {
			w.requests = append(w.requests, request{
				kind:  q.id + "/" + op,
				text:  q.head + " <- " + op + " " + q.body,
				limit: 100,
			})
		}
	}
	return w
}

func scanExact() workload {
	return workload{
		name:    "scan_exact",
		dataset: "L2",
		why:     "exhaustive EXACT scans of 10k-53k rows: long streams through the server next to the short top-k ones",
		loads:   "bulk backend, row materialisation, NDJSON encoding and the HTTP write path (bulk, omega, serve)",
		tailPct: 90,
		requests: []request{
			{kind: "Q4", text: "(?X, ?Y) <- (?X, job.type, ?Y)"},
			{kind: "Q5", text: "(?X, ?Y) <- (?X, next+, ?Y)"},
			{kind: "Q6", text: "(?X, ?Y) <- (?X, prereq+, ?Y)"},
			{kind: "Q7", text: "(?X, ?Y) <- (?X, next+|(prereq+.next), ?Y)"},
		},
	}
}

func joinTopk() workload {
	return workload{
		name:    "join_topk",
		dataset: "L1",
		why:     "conjunctive queries, top 100, on a graph small enough to stay in cache: the rank join sets the time",
		loads:   "the rank join over ranked conjuncts (core join)",
		ordered: true,
		tailPct: 95,
		requests: []request{
			{kind: "next.job", text: "(?X, ?Z) <- (?X, next, ?Y), (?Y, job, ?Z)", limit: 100},
			{kind: "job.occupation", text: "(?X, ?Y) <- (?X, job, ?Y), (?Y, type, Occupation)", limit: 100},
			{kind: "qualif.relax-level", text: "(?X, ?Z) <- (?X, qualif, ?Y), RELAX (?Y, level, ?Z)", limit: 100},
		},
	}
}

// workloads lists every workload in the order BENCHMARK.json names them.
func workloads() []workload {
	return []workload{topkFlex(), scanExact(), joinTopk()}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sequence is a workload's seeded request stream: rounds, each a fresh
// permutation of the distinct requests, so every kind appears equally often
// and only the order depends on the seed. It is safe for concurrent use.
type sequence struct {
	mu    sync.Mutex
	rng   *rand.Rand
	kinds int
	round []int
	next  int
}

func newSequence(seed uint64, kinds int) *sequence {
	return &sequence{rng: rand.New(rand.NewPCG(seed, 0x5e7ebe4c)), kinds: kinds}
}

// take returns the index of the next request in the stream.
func (s *sequence) take() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next == len(s.round) {
		s.round = s.rng.Perm(s.kinds)
		s.next = 0
	}
	k := s.round[s.next]
	s.next++
	return k
}

// prefix returns the first n requests of the stream for seed.
func prefix(seed uint64, kinds, n int) []int {
	s := newSequence(seed, kinds)
	out := make([]int, n)
	for i := range out {
		out[i] = s.take()
	}
	return out
}
