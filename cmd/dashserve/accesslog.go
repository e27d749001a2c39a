package main

// accesslog.go is dashserve's log sink. run makes one sink the standard
// logger's output and hands the same sink to the request middleware, so
// both kinds of line reach the log file through one lock, in order:
//
//   - An access line is appended to an in-memory buffer — no fmt, no
//     write(2) on the request path.
//   - The buffer is written out when it fills, accessFlushEvery after its
//     first line, on Flush (run defers one: graceful shutdown loses
//     nothing), and before every ordinary log line.
//   - An ordinary log line (log.Printf: errors, panics, lifecycle) is
//     written through at once, after the access lines buffered before it.
//     File order is therefore the order the lines were issued in, and an
//     error or a panic trace is never delayed.
//
// A crash that skips run's deferred Flush can lose at most the last
// accessFlushEvery of access lines; ordinary lines are never buffered.

import (
	"io"
	"strconv"
	"sync"
	"time"
)

const (
	accessFlushEvery = 100 * time.Millisecond
	accessBufBytes   = 32 << 10
)

// logSink orders ordinary log lines and buffered access lines onto one
// writer. Safe for concurrent use.
type logSink struct {
	mu    sync.Mutex
	out   io.Writer
	buf   []byte      // whole access lines not yet written
	timer *time.Timer // flushes buf; re-armed when buf gets its first line
}

func newLogSink(out io.Writer) *logSink {
	return &logSink{out: out, buf: make([]byte, 0, accessBufBytes+512)}
}

// Write is the standard logger's output: p is one complete ordinary line.
func (s *logSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	return s.out.Write(p)
}

// Flush writes out the buffered access lines.
func (s *logSink) Flush() {
	s.mu.Lock()
	s.flushLocked()
	s.mu.Unlock()
}

func (s *logSink) flushLocked() {
	if len(s.buf) == 0 {
		return
	}
	//lint:ignore droppederr like the standard logger, the log sink has nowhere to report that writing the log failed
	_, _ = s.out.Write(s.buf)
	s.buf = s.buf[:0]
}

// access buffers one request's access line.
func (s *logSink) access(now time.Time, method, uri string, code int, elapsed time.Duration, id, cache, durability string) {
	s.mu.Lock()
	first := len(s.buf) == 0
	s.buf = appendAccessLine(s.buf, now, method, uri, code, elapsed, id, cache, durability)
	if len(s.buf) >= accessBufBytes {
		s.flushLocked()
	} else if first {
		if s.timer == nil {
			s.timer = time.AfterFunc(accessFlushEvery, s.Flush)
		} else {
			s.timer.Reset(accessFlushEvery)
		}
	}
	s.mu.Unlock()
}

// appendAccessLine renders one access line exactly as the standard logger
// (default flags) renders
//
//	log.Printf("%s %s -> %d (%s) id=%s cache=%s durability=%s", …)
//
// at time now: TestAccessLineMatchesLogPrintf holds it to that.
func appendAccessLine(dst []byte, now time.Time, method, uri string, code int, elapsed time.Duration, id, cache, durability string) []byte {
	dst = now.AppendFormat(dst, "2006/01/02 15:04:05 ")
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, uri...)
	dst = append(dst, " -> "...)
	dst = strconv.AppendInt(dst, int64(code), 10)
	dst = append(dst, " ("...)
	dst = append(dst, elapsed.String()...)
	dst = append(dst, ") id="...)
	dst = append(dst, id...)
	dst = append(dst, " cache="...)
	dst = append(dst, cache...)
	dst = append(dst, " durability="...)
	dst = append(dst, durability...)
	return append(dst, '\n')
}
