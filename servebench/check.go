package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"omega"
)

// answer is a request's reference result, computed in-process with a fresh
// Prepare and Exec (no pool) before anything is timed.
type answer struct {
	rows int
	hash uint64  // order-sensitive hash over every row's nodes and dist
	flat []int64 // nodes then dist, row after row; kept for ordered checks
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h uint64, v int64) uint64 { return (h ^ uint64(v)) * fnvPrime }

// hashRow folds one row into an order-sensitive hash.
func hashRow(h uint64, nodes []int64, dist int64) uint64 {
	for _, n := range nodes {
		h = mix(h, n)
	}
	return mix(mix(h, dist), -1)
}

func reference(ctx context.Context, eng *omega.Engine, r request, ordered bool) (*answer, error) {
	pq, err := eng.PrepareText(r.text)
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", r.kind, err)
	}
	rows, err := pq.Exec(ctx, omega.ExecOptions{Limit: r.limit})
	if err != nil {
		return nil, fmt.Errorf("exec %s: %w", r.kind, err)
	}
	defer rows.Close()
	a := &answer{hash: fnvOffset}
	var nodes []int64
	for {
		row, ok, err := rows.Next()
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", r.kind, err)
		}
		if !ok {
			return a, nil
		}
		nodes = nodes[:0]
		for _, n := range row.Nodes {
			nodes = append(nodes, int64(n))
		}
		a.rows++
		a.hash = hashRow(a.hash, nodes, int64(row.Dist))
		if ordered {
			a.flat = append(append(a.flat, nodes...), int64(row.Dist))
		}
	}
}

// checker compares a stream of rows against a reference as they arrive.
type checker struct {
	want    *answer
	ordered bool
	rows    int
	pos     int
	hash    uint64
	err     error
}

func newChecker(want *answer, ordered bool) *checker {
	return &checker{want: want, ordered: ordered, hash: fnvOffset}
}

func (c *checker) row(nodes []int64, dist int64) {
	c.rows++
	c.hash = hashRow(c.hash, nodes, dist)
	if c.ordered && c.err == nil {
		for _, v := range nodes {
			c.expect(v)
		}
		c.expect(dist)
	}
}

func (c *checker) expect(v int64) {
	if c.err != nil {
		return
	}
	if c.pos >= len(c.want.flat) || c.want.flat[c.pos] != v {
		c.err = fmt.Errorf("row %d differs from the reference", c.rows)
		return
	}
	c.pos++
}

// finish checks the totals once the stream has ended.
func (c *checker) finish() error {
	switch {
	case c.err != nil:
		return c.err
	case c.rows != c.want.rows:
		return fmt.Errorf("%d rows, reference has %d", c.rows, c.want.rows)
	case c.hash != c.want.hash:
		return errors.New("row hash differs from the reference")
	}
	return nil
}

// doneLine is the part of the server's terminating NDJSON line the
// benchmark reads.
type doneLine struct {
	Done  bool   `json:"done"`
	Error string `json:"error"`
	Rows  int    `json:"rows"`
	Stats struct {
		QueueWaitMs float64 `json:"queue_wait_ms"`
	} `json:"stats"`
}

// streamResult is what reading one NDJSON response yielded.
type streamResult struct {
	rows      int
	firstRow  time.Duration // since the request was sent; 0 when no row came
	done      time.Duration // since the request was sent, at the done line
	queueWait float64       // ms, from the done line
	err       error         // protocol failure or mismatch with the reference
}

var nodesKey, distKey = []byte(`"nodes":[`), []byte(`"dist":`)

// readStream reads an NDJSON answer stream to its end, checking every row
// against want, and times the first row and the done line from sent.
func readStream(body io.Reader, sent time.Time, want *answer, ordered bool) streamResult {
	var res streamResult
	chk := newChecker(want, ordered)
	br := bufio.NewReaderSize(body, 64<<10)
	var nodes []int64
	terminated := false
	for {
		// Every line of these workloads is far below the buffer size; a
		// longer one is a protocol failure like any other.
		line, err := br.ReadSlice('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			switch {
			case terminated:
				res.err = errors.New("data after the terminating line")
			case bytes.Contains(line, nodesKey):
				if res.rows == 0 {
					res.firstRow = time.Since(sent)
				}
				res.rows++
				var dist int64
				var perr error
				nodes, dist, perr = parseRow(line, nodes[:0])
				if perr != nil && res.err == nil {
					res.err = perr
				}
				chk.row(nodes, dist)
			default:
				terminated = true
				res.done = time.Since(sent)
				var d doneLine
				switch jerr := json.Unmarshal(line, &d); {
				case jerr != nil:
					res.err = fmt.Errorf("terminating line: %w", jerr)
				case d.Error != "":
					res.err = fmt.Errorf("error line: %s", d.Error)
				case !d.Done:
					res.err = errors.New("terminating line is not a done line")
				case d.Rows != res.rows:
					res.err = fmt.Errorf("done line says %d rows, %d received", d.Rows, res.rows)
				}
				res.queueWait = d.Stats.QueueWaitMs
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && res.err == nil {
				res.err = fmt.Errorf("read: %w", err)
			}
			break
		}
	}
	if res.err == nil && !terminated {
		res.err = errors.New("stream ended without a done line")
	}
	if res.err == nil {
		res.err = chk.finish()
	}
	return res
}

// parseRow extracts the nodes array and the dist field of a row line.
func parseRow(line []byte, nodes []int64) ([]int64, int64, error) {
	rest := line[bytes.Index(line, nodesKey)+len(nodesKey):]
	for len(rest) > 0 && rest[0] != ']' {
		n, k := parseInt(rest)
		if k == 0 {
			return nodes, 0, errors.New("row line: malformed nodes")
		}
		nodes = append(nodes, n)
		rest = rest[k:]
		if len(rest) > 0 && rest[0] == ',' {
			rest = rest[1:]
		}
	}
	j := bytes.Index(line, distKey)
	if j < 0 {
		return nodes, 0, errors.New("row line: no dist")
	}
	dist, k := parseInt(line[j+len(distKey):])
	if k == 0 {
		return nodes, 0, errors.New("row line: malformed dist")
	}
	return nodes, dist, nil
}

// parseInt reads a decimal integer at the start of b and returns it with the
// number of bytes it spans (0 when b does not start with one).
func parseInt(b []byte) (int64, int) {
	neg, k := false, 0
	if len(b) > 0 && b[0] == '-' {
		neg, k = true, 1
	}
	start := k
	var v int64
	for k < len(b) && b[k] >= '0' && b[k] <= '9' {
		v = v*10 + int64(b[k]-'0')
		k++
	}
	if k == start {
		return 0, 0
	}
	if neg {
		v = -v
	}
	return v, k
}
