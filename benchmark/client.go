package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout is when a request counts as failed.
const requestTimeout = 10 * time.Second

// client sends the generated requests. It never holds more connections
// than the workload has client goroutines.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer // nil in an untraced run
}

func newClient(base string, conns int, tr *tracer) *client {
	return &client{
		hc: &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
		},
		base: base,
		tr:   tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the body of a 200 reply. In a traced
// run it is the "request" span the server-side spans hang from.
func (c *client) do(method, path string, body []byte, opID int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if c.tr != nil && opID != 0 {
		id := c.tr.begin("request", 0, opID)
		defer c.tr.end(id)
		setRefHeaders(req.Header, traceRef{opID, id})
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// sample is one finished operation.
type sample struct {
	op   *op
	ms   float64 // latency the client saw
	resp *response
	err  error // transport, status, or a failed check
}

// drain runs a closed loop: each of n clients takes the next request off
// the list as soon as its previous one was answered, until the list or
// the time is used up. check judges each decoded response.
func (c *client) drain(list []*op, n int, window time.Duration, check func(*op, *response) error) ([]sample, time.Duration) {
	var next atomic.Int64
	out := make([][]sample, n)
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1)) - 1
				if k >= len(list) {
					return
				}
				out[i] = append(out[i], c.one(list[k], check))
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all, elapsed
}

// one sends a query and checks its reply.
func (c *client) one(o *op, check func(*op, *response) error) sample {
	t0 := time.Now()
	body, err := c.do(http.MethodGet, o.path, nil, o.id)
	s := sample{op: o, ms: float64(time.Since(t0)) / 1e6, err: err}
	if err != nil {
		return s
	}
	s.resp = new(response)
	if s.err = json.Unmarshal(body, s.resp); s.err == nil {
		s.err = check(o, s.resp)
	}
	return s
}

// ingestReply is the part of /v1/ingest's answer the writer checks.
type ingestReply struct {
	Accepted int    `json:"accepted"`
	Version  uint64 `json:"version"`
}

// ingestSample is one batch of the open-loop writer.
type ingestSample struct {
	ms   float64 // from the batch's due time to its acknowledgement
	late float64 // how long after its due time it was sent, ms
	err  error
}

// writeOpenLoop posts one batch every interval whether or not the server
// keeps up: a batch is timed from when it was due, so a stall is charged
// to every batch it delays. It stops after the window; the caller learns
// how many batches went in from the result's length. earlier is how many
// batches the dataset already holds, which fixes the versions to expect.
func (c *client) writeOpenLoop(dataset string, bodies [][]byte, earlier int, every, window time.Duration, opBase int) []ingestSample {
	path := "/v1/ingest?dataset=" + dataset
	start := time.Now()
	var out []ingestSample
	for i, body := range bodies {
		due := start.Add(time.Duration(i) * every)
		if due.Sub(start) >= window {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		s := ingestSample{late: float64(time.Since(due)) / 1e6}
		data, err := c.do(http.MethodPost, path, body, opBase+i)
		s.ms = float64(time.Since(due)) / 1e6
		if err == nil {
			var r ingestReply
			if err = json.Unmarshal(data, &r); err == nil && (r.Accepted == 0 || r.Version != uint64(earlier+i+2)) {
				err = fmt.Errorf("batch %d: accepted %d edges at version %d", i, r.Accepted, r.Version)
			}
		}
		s.err = err
		out = append(out, s)
		if err != nil {
			break // later batches would be rejected as out of order
		}
	}
	return out
}

// scrape reads hared's /metrics page into name -> summed value; labelled
// series of one name are added up, and kept apart under "name{labels}".
func (c *client) scrape() (map[string]float64, error) {
	body, err := c.do(http.MethodGet, "/metrics", nil, 0)
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		series := line[:i]
		m[series] = v
		if j := strings.IndexByte(series, '{'); j >= 0 {
			m[series[:j]] += v
		}
	}
	return m, nil
}

// delta is a counter's growth between two scrapes.
func delta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}
