package main

// proc.go runs dashserve as child processes and reads their cost from
// /proc: the servers are real processes reached over loopback HTTP, never
// in-process handlers.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux architecture Go supports.
const clockTick = 100

// serverProc is one dashserve child.
type serverProc struct {
	cmd *exec.Cmd
	url string
	// exited is closed once the process has been waited for; waitErr is
	// its exit status from then on.
	exited  chan struct{}
	waitErr error
	// bootTime is spawn → first /v1/readyz 200.
	bootTime time.Duration
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return "", err
	}
	return addr, nil
}

// startServer spawns dashserve with args on a free port and waits until it
// answers /v1/readyz. The per-request access log goes to logPath, never to
// an undrained pipe.
func startServer(ctx context.Context, bin, logPath string, args ...string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		closeLogged(logf, logPath)
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, url: "http://" + addr, exited: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		closeLogged(logf, logPath)
		close(p.exited)
	}()
	if err := p.waitReady(ctx, 120*time.Second); err != nil {
		p.kill()
		return nil, fmt.Errorf("%s %s: %w (log: %s)", bin, strings.Join(args, " "), err, logPath)
	}
	p.bootTime = time.Since(start)
	return p, nil
}

// waitReady polls /v1/readyz until it answers 200, the process exits, or
// the budget runs out.
func (p *serverProc) waitReady(ctx context.Context, budget time.Duration) error {
	hc := &http.Client{Timeout: 2 * time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(budget)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/v1/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			closeLogged(resp.Body, "readyz body")
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("server exited before becoming ready: %v", p.waitErr)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return errors.New("server not ready in time")
		}
	}
}

// signalAndWait ends the process — SIGTERM for a graceful drain, SIGKILL
// for the crash the durability check wants — and waits until it is gone.
// Ending a process twice is harmless.
func (p *serverProc) signalAndWait(sig syscall.Signal) {
	signal := func(sig syscall.Signal) {
		if err := p.cmd.Process.Signal(sig); err != nil && !errors.Is(err, os.ErrProcessDone) {
			fmt.Fprintf(os.Stderr, "dashload: signal %v to pid %d: %v\n", sig, p.cmd.Process.Pid, err)
		}
	}
	signal(sig)
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		signal(syscall.SIGKILL)
		<-p.exited
	}
}

func (p *serverProc) stop() { p.signalAndWait(syscall.SIGTERM) }
func (p *serverProc) kill() { p.signalAndWait(syscall.SIGKILL) }

// closeLogged closes c and reports a failure on stderr; nothing the driver
// closes this way holds data whose loss would change a result.
func closeLogged(c io.Closer, what string) {
	if err := c.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "dashload: close %s: %v\n", what, err)
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func (p *serverProc) cpuSeconds() (float64, error) {
	return procCPUSeconds(p.cmd.Process.Pid)
}

func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err := strconv.ParseFloat(f[11], 64)
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseFloat(f[12], 64)
	if err != nil {
		return 0, err
	}
	return (utime + stime) / clockTick, nil
}

// statusMiB reads one kB-valued field of /proc/<pid>/status (VmRSS: the
// resident set now; VmHWM: its peak so far) in MiB.
func (p *serverProc) statusMiB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}
