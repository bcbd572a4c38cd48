package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"omega"
	"omega/internal/serve"
)

// stack is the system under test: a generated dataset, an engine, a
// serve.Server and the loopback HTTP listener in front of it, all inside the
// benchmark's own process.
type stack struct {
	eng    *omega.Engine
	srv    *serve.Server
	hs     *http.Server
	addr   string
	served chan error // receives http.Server.Serve's return value
}

// startStack generates the dataset and starts the server the way
// omega-serve does with its defaults: distance-aware retrieval on, a
// 5,000,000-tuple budget, serial execution. Workers is the CPU count. The
// row limit is left uncapped so exhaustive scans return every answer, and
// the per-request log is off. spillDir is where any spill files would go.
func startStack(scale string, workers int, spillDir string) (*stack, error) {
	g, ont, err := omega.GenerateL4All(scale)
	if err != nil {
		return nil, err
	}
	eng := omega.NewEngine(g, ont).WithOptions(omega.Options{
		DistanceAware: true,
		MaxTuples:     5_000_000,
		SpillDir:      spillDir,
	})
	srv := serve.New(serve.Config{
		Engine:        eng,
		Workers:       workers,
		Quantum:       64,
		Timeout:       30 * time.Second,
		RetryAfter:    time.Second,
		StallBudget:   time.Minute,
		DegradeAfter:  16,
		DegradeWindow: 10 * time.Second,
		DegradedLimit: 1000,
		PlanCacheSize: 128,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	st := &stack{
		eng:    eng,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		addr:   ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { st.served <- st.hs.Serve(ln) }()
	return st, nil
}

// close stops the listener, waits for in-flight handlers and the Serve
// goroutine, then drains the server's scheduler and memory broker.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := st.hs.Shutdown(ctx)
	if serr := <-st.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, st.srv.Close())
}

// checkStopped verifies what close promises: the listener refuses
// connections, no request is in flight, and no spill directory is left.
func (st *stack) checkStopped(spillDir string) error {
	var errs []error
	if c, err := net.DialTimeout("tcp", st.addr, time.Second); err == nil {
		c.Close()
		errs = append(errs, fmt.Errorf("listener %s still accepts connections", st.addr))
	}
	if n := st.srv.Scheduler().Stats().InFlight; n != 0 {
		errs = append(errs, fmt.Errorf("%d requests still in flight", n))
	}
	ents, err := os.ReadDir(spillDir)
	if err != nil {
		errs = append(errs, fmt.Errorf("read spill dir: %w", err))
	}
	for _, e := range ents {
		errs = append(errs, fmt.Errorf("spill entry left behind: %s", e.Name()))
	}
	return errors.Join(errs...)
}
