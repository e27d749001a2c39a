package main

// client.go is the driver's side of dashserve's /v1 API. Each closed-loop
// worker owns one conn — one keep-alive connection — so the number of
// workers is the number of client connections.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP connection and the buffer its response
// bodies are read into.
type conn struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newConn() *conn {
	return &conn{hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole body into c.buf (valid until
// the next call). rtt is send → body read.
func (c *conn) do(ctx context.Context, method, url string, body []byte) (resp *http.Response, rtt time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err = c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	closeLogged(resp.Body, "response body")
	if err != nil {
		return nil, 0, fmt.Errorf("read %s body: %w", url, err)
	}
	return resp, time.Since(start), nil
}

// searchReply is what one GET /v1/search told the client. body aliases
// the conn's buffer.
type searchReply struct {
	status   int
	rtt      time.Duration
	elapsed  time.Duration // X-Elapsed: the handler's own search time
	cacheHit bool          // X-Cache: hit
	forward  bool          // X-Dash-Served-By present: another node answered
	body     []byte
}

func searchURL(base, q string, minEpoch uint64) string {
	u := base + "/v1/search?q=" + url.QueryEscape(q) + "&k=" + strconv.Itoa(searchK) + "&s=" + strconv.Itoa(searchS)
	if minEpoch > 0 {
		u += "&min_epoch=" + strconv.FormatUint(minEpoch, 10)
	}
	return u
}

func (c *conn) search(ctx context.Context, base, q string, minEpoch uint64) (searchReply, error) {
	resp, rtt, err := c.do(ctx, http.MethodGet, searchURL(base, q, minEpoch), nil)
	if err != nil {
		return searchReply{}, err
	}
	r := searchReply{
		status:   resp.StatusCode,
		rtt:      rtt,
		cacheHit: resp.Header.Get("X-Cache") == "hit",
		forward:  resp.Header.Get("X-Dash-Served-By") != "",
		body:     c.buf.Bytes(),
	}
	if raw := resp.Header.Get("X-Elapsed"); raw != "" {
		if r.elapsed, err = time.ParseDuration(raw); err != nil {
			return searchReply{}, fmt.Errorf("X-Elapsed %q: %w", raw, err)
		}
	}
	return r, nil
}

// applyReply is the part of dashserve's apply report the driver reads.
type applyReply struct {
	Total struct {
		Epoch        uint64 `json:"epoch"`
		Inserted     int    `json:"inserted"`
		Removed      int    `json:"removed"`
		Updated      int    `json:"updated"`
		ClonedChunks int    `json:"cloned_chunks"`
		ClonedLists  int    `json:"cloned_lists"`
	} `json:"total"`
}

// apply POSTs one maintenance request; a non-200 answer is an error.
func (c *conn) apply(ctx context.Context, base string, body []byte) (applyReply, time.Duration, error) {
	resp, rtt, err := c.do(ctx, http.MethodPost, base+"/v1/admin/apply", body)
	if err != nil {
		return applyReply{}, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return applyReply{}, 0, fmt.Errorf("apply: status %d: %s", resp.StatusCode, c.buf.Bytes())
	}
	var rep applyReply
	if err := json.Unmarshal(c.buf.Bytes(), &rep); err != nil {
		return applyReply{}, 0, fmt.Errorf("apply: undecodable report: %w", err)
	}
	return rep, rtt, nil
}

// getJSON GETs path and decodes a 200 answer into v.
func (c *conn) getJSON(ctx context.Context, url string, v any) error {
	resp, _, err := c.do(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.Unmarshal(c.buf.Bytes(), v)
}

// serverStats is the part of /v1/admin/stats the window counters read.
type serverStats struct {
	Publishes   uint64 `json:"publishes"`
	Compactions uint64 `json:"compactions"`
	Cache       *struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Collapsed uint64 `json:"collapsed"`
		Evictions uint64 `json:"evictions"`
	} `json:"cache"`
	Durability *struct {
		Checkpoints uint64 `json:"checkpoints"`
	} `json:"durability"`
	Replication *replicationStats `json:"replication"`
}

// replicationStats is a replica's tail state, as /v1/readyz and
// /v1/admin/stats report it.
type replicationStats struct {
	MinApplied uint64 `json:"min_applied_epoch"`
	PerShard   []struct {
		RecordsApplied uint64 `json:"records_applied"`
		Reconnects     uint64 `json:"reconnects"`
	} `json:"per_shard"`
}

func (c *conn) stats(ctx context.Context, base string) (serverStats, error) {
	var st serverStats
	err := c.getJSON(ctx, base+"/v1/admin/stats", &st)
	return st, err
}

// readyz is the part of a replica's readiness answer the driver reads.
type readyz struct {
	Replication *replicationStats `json:"replication"`
}
