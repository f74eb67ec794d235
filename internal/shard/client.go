package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"hare/internal/server"
)

// Policy bounds one sub-request's delivery: per-attempt timeout, how many
// extra attempts to make (each on the next peer in rotation, after a
// doubling backoff), and how long to wait on a straggling attempt before
// hedging a duplicate to the next peer. The zero value selects the
// defaults; HedgeAfter stays disabled unless set.
type Policy struct {
	// Timeout bounds each attempt (default 30s).
	Timeout time.Duration
	// Retries is the number of additional attempts after the first
	// (0 = default 2; negative = no retries).
	Retries int
	// Backoff is the pause before the first retry, doubling per attempt
	// (default 50ms).
	Backoff time.Duration
	// HedgeAfter launches a duplicate attempt on the next peer when the
	// current one has not answered in this long; the first answer wins
	// (0 = no hedging). Safe at any setting: the gather is idempotent.
	HedgeAfter time.Duration
}

func (p Policy) timeout() time.Duration {
	if p.Timeout > 0 {
		return p.Timeout
	}
	return 30 * time.Second
}

func (p Policy) retries() int {
	if p.Retries < 0 {
		return 0
	}
	if p.Retries == 0 {
		return 2
	}
	return p.Retries
}

func (p Policy) backoff() time.Duration {
	if p.Backoff > 0 {
		return p.Backoff
	}
	return 50 * time.Millisecond
}

// PermanentError marks a sub-request failure retrying cannot fix — the
// worker understood the request and rejected it (4xx): malformed sub,
// unknown dataset, graph-shape mismatch (409), protocol version refusal
// (426). The scatter fails fast instead of burning the retry budget.
type PermanentError struct {
	Status int
	Msg    string
}

func (e *PermanentError) Error() string {
	return fmt.Sprintf("shard: peer rejected sub-request (HTTP %d): %s", e.Status, e.Msg)
}

// Client scatters sub-requests across a fixed peer list. Safe for
// concurrent use.
type Client struct {
	peers   []string
	http    *http.Client
	policy  Policy
	metrics *Metrics
}

// NewClient returns a scatter client over the given worker base URLs
// (e.g. "http://10.0.0.2:8315"; a missing scheme defaults to http://).
// metrics may be nil.
func NewClient(peers []string, policy Policy, metrics *Metrics) (*Client, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("shard: no peers")
	}
	norm := make([]string, len(peers))
	for i, p := range peers {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p == "" {
			return nil, fmt.Errorf("shard: empty peer address")
		}
		if !strings.Contains(p, "://") {
			p = "http://" + p
		}
		if u, err := url.Parse(p); err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("shard: invalid peer address %q", peers[i])
		}
		norm[i] = p
	}
	if metrics == nil {
		metrics = NewMetrics()
	}
	return &Client{
		peers:   norm,
		http:    &http.Client{},
		policy:  policy,
		metrics: metrics,
	}, nil
}

// Peers returns the normalized peer base URLs.
func (c *Client) Peers() []string { return c.peers }

// Metrics returns the client's scatter counters.
func (c *Client) Metrics() *Metrics { return c.metrics }

// task is one sub-request plus its home peer (the first peer tried;
// retries and hedges rotate onward from it).
type task struct {
	sub  SubRequest
	home int
}

// scatter delivers every task concurrently and gathers the partials.
// It returns a loud error naming the failed shards if any task exhausts
// its attempts — partial answers are never silently served as whole ones.
func (c *Client) scatter(ctx context.Context, tasks []task) (*Gather, error) {
	g := gatherFor(tasks[0].sub.Request, len(tasks))
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i := range tasks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.do(ctx, tasks[i].home, tasks[i].sub)
			if err != nil {
				errs[i] = err
				return
			}
			if err := g.Add(p); err != nil {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	var failed []string
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Sprintf("shard %d: %v", tasks[i].sub.Shard, err))
		}
	}
	if len(failed) > 0 {
		c.metrics.failure(string(tasks[0].sub.Kind), len(failed))
		return nil, fmt.Errorf("shard: %s scatter degraded, %d/%d shard(s) failed: %s",
			tasks[0].sub.Kind, len(failed), len(tasks), strings.Join(failed, "; "))
	}
	return g, nil
}

// do delivers one sub-request: up to 1+Retries attempts, attempt a going
// to peer (home+a) mod len(peers) after a doubling backoff, each attempt
// individually timed out and optionally hedged. Permanent (4xx)
// rejections abort immediately.
func (c *Client) do(ctx context.Context, home int, sub SubRequest) (*Partial, error) {
	kind := string(sub.Kind)
	backoff := c.policy.backoff()
	retries := c.policy.retries()
	var lastErr error
	for a := 0; a <= retries; a++ {
		if a > 0 {
			c.metrics.retry(kind)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			backoff *= 2
		}
		p, err := c.attempt(ctx, (home+a)%len(c.peers), sub)
		if err == nil {
			return p, nil
		}
		var pe *PermanentError
		if errors.As(err, &pe) {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%d attempt(s) exhausted: %w", retries+1, lastErr)
}

// attempt runs one timed attempt against peer, hedging a duplicate to the
// next peer if the policy's hedge delay expires first. The first success
// wins; a permanent rejection from either copy wins over waiting.
func (c *Client) attempt(ctx context.Context, peer int, sub SubRequest) (*Partial, error) {
	actx, cancel := context.WithTimeout(ctx, c.policy.timeout())
	defer cancel()
	type outcome struct {
		p   *Partial
		err error
	}
	ch := make(chan outcome, 2)
	post := func(pi int) {
		p, err := c.post(actx, pi, sub)
		ch <- outcome{p, err}
	}
	go post(peer)
	inflight := 1
	var hedge <-chan time.Time
	if c.policy.HedgeAfter > 0 && len(c.peers) > 1 {
		hedge = time.After(c.policy.HedgeAfter)
	}
	var firstErr error
	for {
		select {
		case o := <-ch:
			if o.err == nil {
				return o.p, nil
			}
			var pe *PermanentError
			if errors.As(o.err, &pe) {
				return nil, o.err
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if inflight--; inflight == 0 {
				return nil, firstErr
			}
		case <-hedge:
			hedge = nil
			c.metrics.hedge(string(sub.Kind))
			go post((peer + 1) % len(c.peers))
			inflight++
		case <-actx.Done():
			if firstErr != nil {
				return nil, firstErr
			}
			return nil, actx.Err()
		}
	}
}

// post performs the raw HTTP exchange with one peer and classifies the
// failure modes: transport errors and 5xx are retryable, other non-2xx
// are permanent, and a proto/shard mismatch or a sig partial whose sample
// count is not its range's in an otherwise-OK body is permanent (the fleet
// is misconfigured or faulty, not flaky).
func (c *Client) post(ctx context.Context, peer int, sub SubRequest) (*Partial, error) {
	body, err := json.Marshal(&sub)
	if err != nil {
		return nil, &PermanentError{Status: 0, Msg: err.Error()}
	}
	url := c.peers[peer] + PathCompute
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, &PermanentError{Status: 0, Msg: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.http.Do(req)
	c.metrics.observe(string(sub.Kind), peer, c.peers[peer], time.Since(start), err != nil)
	if err != nil {
		return nil, fmt.Errorf("peer %s: %w", c.peers[peer], err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, fmt.Errorf("peer %s: reading response: %w", c.peers[peer], err)
	}
	if resp.StatusCode != http.StatusOK {
		var we wireError
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &we) == nil && we.Error != "" {
			msg = we.Error
		}
		if resp.StatusCode >= 500 {
			return nil, fmt.Errorf("peer %s: HTTP %d: %s", c.peers[peer], resp.StatusCode, msg)
		}
		return nil, &PermanentError{Status: resp.StatusCode, Msg: fmt.Sprintf("peer %s: %s", c.peers[peer], msg)}
	}
	var p Partial
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("peer %s: decoding partial: %w", c.peers[peer], err)
	}
	if p.Proto != ProtoVersion {
		return nil, &PermanentError{Status: 0, Msg: fmt.Sprintf("peer %s answered proto %d, want %d", c.peers[peer], p.Proto, ProtoVersion)}
	}
	if p.Shard != sub.Shard {
		return nil, &PermanentError{Status: 0, Msg: fmt.Sprintf("peer %s answered shard %d, want %d", c.peers[peer], p.Shard, sub.Shard)}
	}
	if sub.Kind == server.KindSig && len(p.Sig) != sub.Hi-sub.Lo {
		// Each sample is one draw of the ensemble: a missing or repeated
		// one would be averaged in as if the fleet had run another count.
		return nil, &PermanentError{Status: 0, Msg: fmt.Sprintf("peer %s answered %d null samples for range [%d, %d), want %d",
			c.peers[peer], len(p.Sig), sub.Lo, sub.Hi, sub.Hi-sub.Lo)}
	}
	return &p, nil
}
