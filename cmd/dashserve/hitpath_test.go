package main

// Tests for the /v1/search hit path: the assembled body is byte-identical
// to what encoding/json emitted for the same response, whoever computed the
// answer; the buffered access log keeps its format, its order against
// ordinary log lines and its flush promises; and allocation budgets keep
// the floor from creeping back.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	dash "repro"
)

// referenceBody is the retired response writer, kept as the yardstick:
// json.NewEncoder over a map[string]any, which sorts the keys, HTML-escapes
// strings, writes [] for no results and ends with a newline.
func referenceBody(t *testing.T, query string, results []dash.Result) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(map[string]any{
		"query":   query,
		"count":   len(results),
		"results": pagesJSON(results),
	}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// awkwardQueries exercise every branch of encoding/json's string escaping.
var awkwardQueries = []string{
	"burger",
	"burger coffee fries",
	`<script>alert("x")</script>`,
	"a&b>c<d",
	`back\slash "quoted"`,
	"tab\there\nnewline\rcr",
	"bell\x07 backspace\x08 formfeed\x0c nul\x00 del\x7f",
	"line sep para sep",
	"invalid \xff\xfe utf8 \xc3",
	"café 日本語 \U0001f354",
	"",
}

// TestSearchBodyMatchesEncoder: for awkward queries and for answers of 0, 1
// and K results, appendSearchBody around the memoized pages array emits
// exactly the reference encoder's bytes.
func TestSearchBodyMatchesEncoder(t *testing.T) {
	_, eng := testMux(t)
	var answers [][]dash.Result
	for _, req := range []dash.Request{
		{Keywords: []string{"nosuchword"}, K: 5, SizeThreshold: 20},
		{Keywords: []string{"burger"}, K: 1, SizeThreshold: 20},
		{Keywords: []string{"burger", "coffee"}, K: 10, SizeThreshold: 200},
	} {
		res, err := eng.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, res)
	}
	if len(answers[0]) != 0 || len(answers[1]) != 1 || len(answers[2]) < 2 {
		t.Fatalf("fixture answers have %d/%d/%d results, want 0/1/several",
			len(answers[0]), len(answers[1]), len(answers[2]))
	}
	// HTML-sensitive bytes inside a result, not only inside the query.
	answers = append(answers, []dash.Result{{URL: "http://x/?a=<1>&b=\"2\"", QueryString: "a=<1>&b=\"2\"", Score: 1.0 / 3, Size: 7}})
	for _, res := range answers {
		pages, err := dash.NewAnswer(res).Encoded(encodePages)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range awkwardQueries {
			got := appendSearchBody(nil, q, len(res), pages)
			if want := referenceBody(t, q, res); !bytes.Equal(got, want) {
				t.Errorf("query %q, %d results:\n got %q\nwant %q", q, len(res), got, want)
			}
		}
	}
}

// TestSearchBodySameForEveryOutcome: the same request answered as a miss,
// as hits and by concurrent callers racing on a cold key (leader, collapsed
// waiters, late hits — whichever each turns out to be) yields the same
// bytes, the reference encoder's, with the same headers.
func TestSearchBodySameForEveryOutcome(t *testing.T) {
	mux, _ := testMuxCfg(t, serveConfig{searchTimeout: 5 * time.Second}, dash.WithResultCache(1<<20))
	plain, plainEng := testMux(t) // the same corpus with no cache: the reference
	for _, q := range awkwardQueries[:len(awkwardQueries)-1] {
		target := "/v1/search?k=10&s=200&q=" + url.QueryEscape("burger "+q)
		res, err := plainEng.Search(context.Background(), dash.Request{Keywords: strings.Fields("burger " + q), K: 10, SizeThreshold: 200})
		if err != nil {
			t.Fatal(err)
		}
		want := referenceBody(t, "burger "+q, res)

		const n = 8
		recs := make([]*httptest.ResponseRecorder, n)
		var wg sync.WaitGroup
		for i := range recs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
				recs[i] = rec
			}(i)
		}
		wg.Wait()
		recs = append(recs, get(t, mux, target)) // a certain hit
		misses := 0
		for i, rec := range recs {
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s: response %d (X-Cache %s): status %d, body\n%q\nwant\n%q",
					target, i, rec.Header().Get("X-Cache"), rec.Code, rec.Body.Bytes(), want)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s: Content-Type %q", target, ct)
			}
			if rec.Header().Get("X-Elapsed") == "" || rec.Header().Get("X-Request-ID") == "" {
				t.Errorf("%s: headers %v lack X-Elapsed/X-Request-ID", target, rec.Header())
			}
			if rec.Header().Get("X-Cache") == "miss" {
				misses++
			}
		}
		if misses != 1 || recs[n].Header().Get("X-Cache") != "hit" {
			t.Errorf("%s: %d misses among racing callers (want 1), final X-Cache %q (want hit)",
				target, misses, recs[n].Header().Get("X-Cache"))
		}
	}

	// A handle without a cache goes through the same writer.
	res, err := plainEng.Search(context.Background(), dash.Request{Keywords: []string{"burger"}, K: 3, SizeThreshold: 20})
	if err != nil {
		t.Fatal(err)
	}
	rec := get(t, plain, "/v1/search?q=burger&k=3&s=20")
	if rec.Header().Get("X-Cache") != "bypass" || !bytes.Equal(rec.Body.Bytes(), referenceBody(t, "burger", res)) {
		t.Errorf("cache-less body %q (X-Cache %s)", rec.Body.Bytes(), rec.Header().Get("X-Cache"))
	}
}

// TestAccessLineMatchesLogPrintf: the appended access line is byte-equal to
// the standard logger's rendering of the old Printf call.
func TestAccessLineMatchesLogPrintf(t *testing.T) {
	for _, c := range []struct {
		method, uri    string
		code           int
		elapsed        time.Duration
		id, cache, dur string
	}{
		{"GET", "/v1/search?q=burger+coffee&k=10&s=200", 200, 87 * time.Microsecond, "0123456789abcdef", "hit", "-"},
		{"POST", "/v1/admin/apply", 503, 3*time.Second + 250*time.Millisecond, "ffffffffffffffff", "-", "degraded"},
		{"GET", "/", 404, 0, "0000000000000000", "bypass", "healthy"},
	} {
		for attempt := 0; ; attempt++ {
			var ref bytes.Buffer
			now := time.Now()
			log.New(&ref, "", log.LstdFlags).Printf("%s %s -> %d (%s) id=%s cache=%s durability=%s",
				c.method, c.uri, c.code, c.elapsed, c.id, c.cache, c.dur)
			got := appendAccessLine(nil, now, c.method, c.uri, c.code, c.elapsed, c.id, c.cache, c.dur)
			if bytes.Equal(got, ref.Bytes()) {
				break
			}
			// The reference logger reads the clock itself: retry if the
			// second turned over between the two readings.
			if attempt == 3 || time.Now().Unix() == now.Unix() {
				t.Fatalf("access line\n got %q\nwant %q", got, ref.Bytes())
			}
		}
	}
}

// syncBuffer is a log destination tests can read while the sink writes.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// useSink makes a fresh sink over out the standard logger's output for the
// test, as run does for the process.
func useSink(t *testing.T, out io.Writer) *logSink {
	t.Helper()
	sink := newLogSink(out)
	log.SetOutput(sink)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	return sink
}

// TestLogSinkOrderAndFlush: an ordinary log line issued after an access
// line lands after it; access lines appear within the flush interval with
// no further traffic; a full buffer is written out at once; and the
// panic-to-500 path loses neither the panic report nor its access line.
func TestLogSinkOrderAndFlush(t *testing.T) {
	var out syncBuffer
	sink := useSink(t, &out)
	h := withRequestMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/boom" {
			panic("handler exploded")
		}
		w.WriteHeader(http.StatusNoContent)
	}), sink, nil, nil, nil)

	// Buffered, not written through …
	get(t, h, "/first")
	if s := out.String(); s != "" {
		t.Fatalf("access line written through instead of buffered: %q", s)
	}
	// … flushed ahead of the next ordinary line …
	log.Printf("ordinary line")
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "GET /first -> 204") || !strings.HasSuffix(lines[1], "ordinary line") {
		t.Fatalf("log order: %q", lines)
	}
	// … and on its own within the flush interval.
	get(t, h, "/second")
	deadline := time.Now().Add(20 * accessFlushEvery)
	for !strings.Contains(out.String(), "GET /second -> 204") {
		if time.Now().After(deadline) {
			t.Fatalf("access line not flushed without further traffic: %q", out.String())
		}
		time.Sleep(accessFlushEvery / 4)
	}

	// The panic report is an ordinary line: immediate, after the access
	// lines before it, and the request's own access line follows.
	get(t, h, "/third")
	rec := get(t, h, "/boom")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d", rec.Code)
	}
	s := out.String()
	third, report := strings.Index(s, "GET /third -> 204"), strings.Index(s, "panic id=")
	if third < 0 || report < third || !strings.Contains(s[report:], "handler exploded") {
		t.Fatalf("panic report missing or out of order: %q", s)
	}
	sink.Flush()
	if s := out.String(); !strings.Contains(s[strings.Index(s, "panic id="):], "GET /boom -> 500") {
		t.Fatalf("the panicking request's access line was lost: %q", s)
	}

	// A full buffer does not wait for the timer.
	var full syncBuffer
	fs := newLogSink(&full)
	uri := "/" + strings.Repeat("x", 1000)
	for i := 0; i < accessBufBytes/1000+1; i++ {
		fs.access(time.Now(), "GET", uri, 200, time.Millisecond, "0123456789abcdef", "-", "-")
	}
	if n := strings.Count(full.String(), "\n"); n == 0 {
		t.Fatal("a full access buffer was not written out")
	}
}

// TestGracefulShutdownFlushesAccessLog drives run itself down the SIGTERM
// path: the access line of a request served just before the signal is in
// the log when run returns.
func TestGracefulShutdownFlushesAccessLog(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- run([]string{"-addr", addr, "-dataset", "fooddb", "-gc-interval", "0"}, &out) }()
	target := "http://" + addr + "/v1/search?q=burger&k=2&s=20"
	var resp *http.Response
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if resp, err = http.Get(target); err == nil {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run returned before serving: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err != nil || cerr != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d, read %v, close %v", resp.StatusCode, err, cerr)
	}
	if !bytes.Contains(body, []byte("c=American")) {
		t.Errorf("search body %q", body)
	}
	// run installed its handler before it listened, so the signal is
	// caught, not fatal.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
	logged := out.String()
	access := strings.Index(logged, "GET /v1/search?q=burger&k=2&s=20 -> 200")
	if access < 0 {
		t.Fatalf("access line lost in shutdown: %q", logged)
	}
	if down := strings.Index(logged, "shutting down"); down < access {
		t.Errorf("shutdown notice (at %d) precedes the access line (at %d) issued before it", down, access)
	}
}

// TestV1SearchHitAllocs is the handler half of the hit-path floor: one
// cached /v1/search through the whole middleware, driven with a recorder,
// measured at 20 allocations: the parsed query (6), the timeout context
// (4), the facade probe (3), the keyword split, the request id, the status
// recorder, the X-Request-ID and X-Elapsed values, the log line's URI and
// its duration. A budget of 24 leaves room for runtime noise, not for a
// re-encode (≥ 15) or a second query parse (6).
func TestV1SearchHitAllocs(t *testing.T) {
	mux, _ := testMuxCfg(t, serveConfig{searchTimeout: 5 * time.Second, accessLog: newLogSink(io.Discard)},
		dash.WithResultCache(1<<20))
	req := httptest.NewRequest(http.MethodGet, "/v1/search?q=burger+coffee&k=10&s=200", nil)
	w := &discardResponse{h: make(http.Header)}
	mux.ServeHTTP(w, req)
	if got := w.h.Get("X-Cache"); got != "miss" || w.n == 0 {
		t.Fatalf("warm-up: X-Cache %q, %d body bytes", got, w.n)
	}
	allocs := testing.AllocsPerRun(200, func() {
		clear(w.h)
		mux.ServeHTTP(w, req)
	})
	if got := w.h.Get("X-Cache"); got != "hit" {
		t.Fatalf("measured requests: X-Cache %q, want hit", got)
	}
	t.Logf("v1Search hit: %.0f allocs", allocs)
	if allocs > 24 {
		t.Errorf("a cached /v1/search costs %.0f allocations, budget 24", allocs)
	}
}

// discardResponse is a ResponseWriter that costs the measured handler
// nothing of its own.
type discardResponse struct {
	h http.Header
	n int
}

func (d *discardResponse) Header() http.Header { return d.h }
func (d *discardResponse) WriteHeader(int)     {}
func (d *discardResponse) Write(b []byte) (int, error) {
	d.n += len(b)
	return len(b), nil
}
