package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client is a typed HTTP client for a nobld daemon, used by the
// `nobl remote` mode, the cluster forwarding tier and the
// examples/service-client demo.  The zero value (plus BaseURL) is
// usable: requests go through http.DefaultClient and shed (429)
// responses are retried transparently with capped exponential backoff,
// honoring the server's Retry-After.
type Client struct {
	// BaseURL is the daemon address, e.g. "http://127.0.0.1:7413".
	BaseURL string
	// HTTPClient overrides the transport (httptest servers, timeouts).
	HTTPClient *http.Client
	// MaxRetries bounds the transparent retries of 429 (shed) responses:
	// 0 means the default (4), negative disables retrying.  Retries stop
	// early when the request context expires — the deadline always wins.
	MaxRetries int
	// RetryBase is the first backoff delay (default 250ms); subsequent
	// attempts double it.  A server Retry-After overrides the computed
	// delay.  Every delay is capped by RetryMax (default 5s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// OnRetry, when non-nil, observes each retry before its backoff
	// sleep: the HTTP status that triggered it and the chosen delay.
	OnRetry func(status int, wait time.Duration)
	// Header carries extra headers applied to every request (request-ID
	// propagation, the cluster forwarding marker).
	Header http.Header
}

// NewClient returns a client for the daemon at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) maxRetries() int {
	if c.MaxRetries < 0 {
		return 0
	}
	if c.MaxRetries == 0 {
		return 4
	}
	return c.MaxRetries
}

func (c *Client) retryBase() time.Duration {
	if c.RetryBase <= 0 {
		return 250 * time.Millisecond
	}
	return c.RetryBase
}

func (c *Client) retryMax() time.Duration {
	if c.RetryMax <= 0 {
		return 5 * time.Second
	}
	return c.RetryMax
}

// backoffDelay picks the sleep before retry attempt (0-based): the
// server's Retry-After when it sent one, capped exponential backoff
// from RetryBase otherwise.
func (c *Client) backoffDelay(attempt int, retryAfter time.Duration) time.Duration {
	d := c.retryBase() << uint(attempt)
	if retryAfter > 0 {
		d = retryAfter
	}
	if max := c.retryMax(); d > max {
		d = max
	}
	return d
}

// retryAfterOf parses a Retry-After header carrying delay seconds.
func retryAfterOf(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After")))
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// do performs one request (no retries) and returns the response with
// its body fully read.  A request ID carried by ctx travels as
// X-Request-ID unless Header already sets one.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, nil, fmt.Errorf("service client: %w", err)
	}
	for name, vals := range c.Header {
		for _, v := range vals {
			req.Header.Add(name, v)
		}
	}
	if rid := requestIDFrom(ctx); rid != "" && req.Header.Get(headerRequestID) == "" {
		req.Header.Set(headerRequestID, rid)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("service client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("service client: reading %s: %w", path, err)
	}
	return resp, data, nil
}

// doJSON performs one request and decodes the JSON response into out,
// transparently retrying shed (429) responses with capped exponential
// backoff that honors the server's Retry-After.  Non-2xx responses are
// surfaced as errors carrying the server's error message.
func (c *Client) doJSON(ctx context.Context, method, path string, body, out any) error {
	var data []byte
	if body != nil {
		var err error
		data, err = json.Marshal(body)
		if err != nil {
			return fmt.Errorf("service client: encoding request: %w", err)
		}
	}
	var resp *http.Response
	var respBody []byte
	for attempt := 0; ; attempt++ {
		var err error
		resp, respBody, err = c.do(ctx, method, path, data)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusTooManyRequests || attempt >= c.maxRetries() {
			break
		}
		wait := c.backoffDelay(attempt, retryAfterOf(resp))
		if c.OnRetry != nil {
			c.OnRetry(resp.StatusCode, wait)
		}
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			timer.Stop()
			return fmt.Errorf("service client: %s %s: shed by server, retry abandoned: %w", method, path, ctx.Err())
		case <-timer.C:
		}
	}
	if resp.StatusCode >= 400 {
		var apiErr apiError
		if json.Unmarshal(respBody, &apiErr) == nil && apiErr.Error != "" {
			return fmt.Errorf("service client: %s %s: %s (HTTP %d)", method, path, apiErr.Error, resp.StatusCode)
		}
		// Analyze endpoints carry failures inside the Response body.
		var r Response
		if json.Unmarshal(respBody, &r) == nil && r.Error != "" {
			return fmt.Errorf("service client: %s %s: %s (HTTP %d)", method, path, r.Error, resp.StatusCode)
		}
		return fmt.Errorf("service client: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(respBody, out); err != nil {
		return fmt.Errorf("service client: decoding %s: %w", path, err)
	}
	return nil
}

// postAnalyzeOnce submits one analyze request with no retries and no
// error mapping: the raw Response body, the HTTP status, and the
// Retry-After delay (seconds, 0 when absent).  The cluster forwarding
// tier uses it to relay an owner's verdict — including sheds — to the
// originating client unchanged.
func (c *Client) postAnalyzeOnce(ctx context.Context, req Request) (Response, int, int, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return Response{}, 0, 0, fmt.Errorf("service client: encoding request: %w", err)
	}
	resp, body, err := c.do(ctx, http.MethodPost, "/v1/analyze", data)
	if err != nil {
		return Response{}, 0, 0, err
	}
	retryAfter := int(retryAfterOf(resp) / time.Second)
	var out Response
	if jsonErr := json.Unmarshal(body, &out); jsonErr != nil || out.Schema == "" {
		// A non-Response body (decode-level apiError, proxy page, ...):
		// synthesize a failed Response so the caller has one shape.
		var apiErr apiError
		msg := fmt.Sprintf("HTTP %d from %s", resp.StatusCode, c.BaseURL)
		if json.Unmarshal(body, &apiErr) == nil && apiErr.Error != "" {
			msg = apiErr.Error
		}
		out = Response{Schema: ResponseSchema, Status: string(StatusFailed), Error: msg}
	}
	return out, resp.StatusCode, retryAfter, nil
}

// Health checks the daemon's liveness.
func (c *Client) Health(ctx context.Context) error {
	return c.doJSON(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Algorithms lists the daemon's algorithm registry and analysis kinds.
func (c *Client) Algorithms(ctx context.Context) (AlgorithmsResponse, error) {
	var out AlgorithmsResponse
	err := c.doJSON(ctx, http.MethodGet, "/v1/algorithms", nil, &out)
	return out, err
}

// Cluster fetches the daemon's cluster view: mode, ring parameters,
// membership and per-peer health.  With a non-empty key, the response
// also carries the key's ownership lookup.
func (c *Client) Cluster(ctx context.Context, key string) (ClusterResponse, error) {
	path := "/v1/cluster"
	if key != "" {
		path += "?key=" + url.QueryEscape(key)
	}
	var out ClusterResponse
	err := c.doJSON(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Analyze submits one analysis request.  With req.Wait set, the call
// blocks until the document is ready; otherwise asynchronous kinds
// return a job reference in Response.JobID.
func (c *Client) Analyze(ctx context.Context, req Request) (Response, error) {
	var out Response
	err := c.doJSON(ctx, http.MethodPost, "/v1/analyze", req, &out)
	return out, err
}

// AnalyzeBatch submits several requests in one call.  Per-item failures
// (a bad size among good requests, a shed item on a saturated shard)
// appear in the matching Response — its Status, Error and Code fields —
// while the call itself succeeds: batches partially succeed per item.
func (c *Client) AnalyzeBatch(ctx context.Context, reqs []Request) ([]Response, error) {
	var out BatchResponse
	if err := c.doJSON(ctx, http.MethodPost, "/v1/analyze/batch", BatchRequest{Requests: reqs}, &out); err != nil {
		return nil, err
	}
	return out.Responses, nil
}

// Job fetches a job's status, event log and (when terminal) response.
func (c *Client) Job(ctx context.Context, id string) (JobInfo, error) {
	var out JobInfo
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out)
	return out, err
}

// CancelJob cancels a queued or running job.
func (c *Client) CancelJob(ctx context.Context, id string) (JobInfo, error) {
	var out JobInfo
	err := c.doJSON(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &out)
	return out, err
}

// Metrics fetches the JSON metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (MetricsSnapshot, error) {
	var out MetricsSnapshot
	err := c.doJSON(ctx, http.MethodGet, "/metrics?format=json", nil, &out)
	return out, err
}

// StreamEvents follows a job's SSE progress stream, invoking fn for each
// event until the stream ends (job terminal, context cancelled, or
// server shutdown).  fn may be nil to just drain.
func (c *Client) StreamEvents(ctx context.Context, id string, fn func(Event)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return fmt.Errorf("service client: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.http().Do(req)
	if err != nil {
		return fmt.Errorf("service client: events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("service client: events: HTTP %d", resp.StatusCode)
	}
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			continue // terminal "done" frames carry a bare status string
		}
		if fn != nil && ev.Stage != "" {
			fn(ev)
		}
	}
	return scanner.Err()
}

// WaitJob follows the job's event stream until it is terminal, then
// returns the job's final state.  It degrades to polling if the stream
// breaks before the terminal status lands.
func (c *Client) WaitJob(ctx context.Context, id string, fn func(Event)) (JobInfo, error) {
	_ = c.StreamEvents(ctx, id, fn) // stream errors fall through to polling
	for {
		info, err := c.Job(ctx, id)
		if err != nil {
			return JobInfo{}, err
		}
		if info.Status.Terminal() {
			return info, nil
		}
		select {
		case <-ctx.Done():
			return info, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}
