package main

// calibrate.go is the yardstick of machine speed that set-up time is
// restated by (bootServers): a fixed HTTP exchange between two halves of
// the driver itself, timed while the servers under test sit idle. Nothing
// a server change touches runs in it. (The window's metrics use the
// generator's own cost instead, which is measured while they are: two
// passes either side of a 15 s window miss what the machine did in
// between — bench/AA.md §8.)

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"syscall"
	"time"
)

// calBodyBytes is the calibration response's size: that of a mean search
// response on the benchmark's corpus.
const calBodyBytes = 1500

// calibrator is the driver's own HTTP server and the closed-loop
// connections that exercise it.
type calibrator struct {
	srv    *http.Server
	url    string
	conns  []*conn
	served chan error
}

func newCalibrator() (*calibrator, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("calibration listener: %w", err)
	}
	body := make([]byte, calBodyBytes)
	for i := range body {
		body[i] = 'a' + byte(i%26)
	}
	c := &calibrator{url: "http://" + l.Addr().String(), served: make(chan error, 1)}
	c.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "miss")
		w.Header().Set("X-Elapsed", "1ms")
		if _, err := w.Write(body); err != nil {
			return // the client went away; its own error reports it
		}
	})}
	go func() { c.served <- c.srv.Serve(l) }()
	for i := 0; i < clientConns; i++ {
		c.conns = append(c.conns, newConn())
	}
	return c, nil
}

func (c *calibrator) close() {
	for _, cn := range c.conns {
		cn.close()
	}
	if err := c.srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "dashload: close calibration server:", err)
	}
	if err := <-c.served; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "dashload: calibration server:", err)
	}
}

// calSample is one calibration pass.
type calSample struct {
	requests int
	cpuMS    float64 // driver CPU (client and server halves) per exchange
}

// run exchanges requests on every connection, closed loop, for d.
func (c *calibrator) run(ctx context.Context, d time.Duration) (calSample, error) {
	counts := make([]int, len(c.conns))
	errs := make([]error, len(c.conns))
	cpu0, err := selfCPUSeconds()
	if err != nil {
		return calSample{}, err
	}
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := range c.conns {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				resp, _, err := c.conns[w].do(ctx, http.MethodGet, c.url, nil)
				if err == nil && (resp.StatusCode != http.StatusOK || c.conns[w].buf.Len() != calBodyBytes) {
					err = fmt.Errorf("calibration exchange: status %d, %d bytes", resp.StatusCode, c.conns[w].buf.Len())
				}
				if err != nil {
					errs[w] = err
					return
				}
				counts[w]++
			}
		}(w)
	}
	wg.Wait()
	cpu1, err := selfCPUSeconds()
	if err != nil {
		return calSample{}, err
	}
	if err := errors.Join(errs...); err != nil {
		return calSample{}, err
	}
	n := 0
	for _, k := range counts {
		n += k
	}
	if n == 0 {
		return calSample{}, errors.New("calibration completed no exchange")
	}
	return calSample{requests: n, cpuMS: (cpu1 - cpu0) * 1e3 / float64(n)}, nil
}

// selfCPUSeconds is the driver's own user+system CPU time so far, at the
// kernel's microsecond resolution (/proc/self/stat counts in 10 ms ticks).
func selfCPUSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}
