// Package client is the typed Go client for the protemp control
// plane's v1 HTTP API. Every method takes a context, decodes through
// the shared wire structs of the api package, and maps non-2xx
// responses onto sentinel errors (ErrNotFound, ErrOverloaded, …) so
// callers branch with errors.Is instead of comparing status codes.
//
// The cluster relay inside the server uses this same client to forward
// session requests between nodes through Raw — the option
// WithForwarded marks outgoing requests with the single-hop header —
// so the public client surface and the intra-cluster wire protocol are
// one and the same.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"protemp/api"
)

// Sentinel errors a failed call wraps; match with errors.Is. The full
// server message and status ride along in the *APIError also in the
// chain.
var (
	// ErrNotFound maps 404: unknown session, table, job or trace.
	ErrNotFound = errors.New("client: not found")
	// ErrBadRequest maps 400: the server rejected the request body or
	// parameters.
	ErrBadRequest = errors.New("client: bad request")
	// ErrConflict maps 409: the resource is not in a state that admits
	// the call (e.g. results of a still-running fleet job).
	ErrConflict = errors.New("client: conflict")
	// ErrOverloaded maps 429: the server is shedding load; honor
	// APIError.RetryAfter before retrying.
	ErrOverloaded = errors.New("client: overloaded")
	// ErrUnavailable maps 503: the server (or the session's owner node)
	// is draining or unreachable.
	ErrUnavailable = errors.New("client: unavailable")
	// ErrServer maps any other 5xx.
	ErrServer = errors.New("client: server error")
)

// APIError carries the HTTP detail of a failed call: find it in the
// error chain with errors.As.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error body.
	Message string
	// RetryAfter is the server's Retry-After hint (zero when absent).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Message)
}

// Unwrap maps the status onto the package sentinel.
func (e *APIError) Unwrap() error {
	switch {
	case e.Status == http.StatusNotFound:
		return ErrNotFound
	case e.Status == http.StatusBadRequest:
		return ErrBadRequest
	case e.Status == http.StatusConflict:
		return ErrConflict
	case e.Status == http.StatusTooManyRequests:
		return ErrOverloaded
	case e.Status == http.StatusServiceUnavailable:
		return ErrUnavailable
	case e.Status >= 500:
		return ErrServer
	}
	return nil
}

// Client talks to one protemp-serve node. It is safe for concurrent
// use.
type Client struct {
	base      string
	http      *http.Client
	forwarded bool
	retries   int
	backoff   time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (default
// http.DefaultClient). Streaming methods require a transport without a
// whole-response timeout; bound individual calls with contexts instead.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// WithForwarded marks every outgoing request with api.HeaderForwarded:
// the receiving node serves it locally instead of re-proxying. Only
// cluster peers forwarding on behalf of a client should set this.
func WithForwarded() Option {
	return func(c *Client) { c.forwarded = true }
}

// WithRetry retries idempotent calls (GET and DELETE — never a POST,
// which may have advanced a session) up to attempts extra times with
// linearly growing backoff on transport errors and 5xx responses.
func WithRetry(attempts int, backoff time.Duration) Option {
	return func(c *Client) {
		c.retries = attempts
		c.backoff = backoff
	}
}

// New builds a client for the node at baseURL (scheme required, e.g.
// "http://127.0.0.1:8080").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL %q: %w", baseURL, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q needs scheme and host", baseURL)
	}
	c := &Client{base: strings.TrimRight(baseURL, "/"), http: http.DefaultClient}
	for _, o := range opts {
		if o != nil {
			o(c)
		}
	}
	return c, nil
}

// BaseURL returns the node address the client was built for.
func (c *Client) BaseURL() string { return c.base }

// newRequest assembles one request with the client's standing headers.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.forwarded {
		req.Header.Set(api.HeaderForwarded, "1")
	}
	return req, nil
}

// idempotent reports whether a method is safe to retry.
func idempotent(method string) bool {
	return method == http.MethodGet || method == http.MethodDelete
}

// do runs one request, retrying idempotent methods per WithRetry. The
// body, when non-nil, must be a *bytes.Reader so retries can rewind.
func (c *Client) do(ctx context.Context, method, path string, body *bytes.Reader) (*http.Response, error) {
	attempts := 1
	if c.retries > 0 && idempotent(method) {
		attempts += c.retries
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			select {
			case <-time.After(time.Duration(i) * c.backoff):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		var rd io.Reader
		if body != nil {
			body.Seek(0, io.SeekStart)
			rd = body
		}
		req, err := c.newRequest(ctx, method, path, rd)
		if err != nil {
			return nil, err
		}
		resp, err := c.http.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode >= 500 && i+1 < attempts {
			resp.Body.Close()
			lastErr = &APIError{Status: resp.StatusCode, Message: http.StatusText(resp.StatusCode)}
			continue
		}
		return resp, nil
	}
	return nil, fmt.Errorf("client: %s %s: %w", method, path, lastErr)
}

// checkStatus converts a non-2xx response into an *APIError (wrapping
// the matching sentinel) and drains/closes the body.
func checkStatus(resp *http.Response) error {
	if resp.StatusCode < 300 {
		return nil
	}
	defer resp.Body.Close()
	apiErr := &APIError{Status: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	var wire api.Error
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if jerr := json.Unmarshal(body, &wire); jerr == nil && wire.Message != "" {
		apiErr.Message = wire.Message
	} else {
		apiErr.Message = strings.TrimSpace(string(body))
	}
	if apiErr.Message == "" {
		apiErr.Message = http.StatusText(resp.StatusCode)
	}
	return apiErr
}

// callJSON runs one JSON round trip: marshal in (nil = empty body),
// decode out (nil = discard).
func (c *Client) callJSON(ctx context.Context, method, path string, in, out any) error {
	var body *bytes.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: marshal request: %w", err)
		}
		body = bytes.NewReader(raw)
	}
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return err
	}
	if err := checkStatus(resp); err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s %s response: %w", method, path, err)
	}
	return nil
}

// Healthz reports the node's liveness and cluster membership.
func (c *Client) Healthz(ctx context.Context) (api.Health, error) {
	var out api.Health
	err := c.callJSON(ctx, http.MethodGet, "/healthz", nil, &out)
	return out, err
}

// Optimize solves one Phase-2 design point.
func (c *Client) Optimize(ctx context.Context, req api.OptimizeRequest) (api.Assignment, error) {
	var out api.Assignment
	err := c.callJSON(ctx, http.MethodPost, "/v1/optimize", req, &out)
	return out, err
}

// GenerateTable generates (or fetches from the server's cache/store) a
// Phase-1 table.
func (c *Client) GenerateTable(ctx context.Context, req api.TablesRequest) (api.TablesResponse, error) {
	var out api.TablesResponse
	err := c.callJSON(ctx, http.MethodPost, "/v1/tables", req, &out)
	return out, err
}

// TableRaw fetches one stored table by its content-addressed key as
// the versioned binary envelope (tablestore format). The caller owns
// the returned body. A node that neither holds nor can produce the
// table returns ErrNotFound.
func (c *Client) TableRaw(ctx context.Context, key string) (io.ReadCloser, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/tables/"+url.PathEscape(key), nil)
	if err != nil {
		return nil, err
	}
	if err := checkStatus(resp); err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// CreateSession opens a control session.
func (c *Client) CreateSession(ctx context.Context, req api.SessionCreateRequest) (api.SessionInfo, error) {
	var out api.SessionInfo
	err := c.callJSON(ctx, http.MethodPost, "/v1/sessions", req, &out)
	return out, err
}

// Session fetches one session's stats.
func (c *Client) Session(ctx context.Context, id string) (api.SessionInfo, error) {
	var out api.SessionInfo
	err := c.callJSON(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id), nil, &out)
	return out, err
}

// Step drives one DFS-window decision.
func (c *Client) Step(ctx context.Context, id string, req api.StepRequest) (api.StepResponse, error) {
	var out api.StepResponse
	err := c.callJSON(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/step", req, &out)
	return out, err
}

// DeleteSession closes a session.
func (c *Client) DeleteSession(ctx context.Context, id string) error {
	return c.callJSON(ctx, http.MethodDelete, "/v1/sessions/"+url.PathEscape(id), nil, nil)
}

// Stream drives a server-side co-simulated control loop, invoking fn
// once per NDJSON window line as it arrives, and returns the closing
// summary. A non-nil error from fn aborts the stream and is returned
// verbatim. An in-band server error line surfaces as an *APIError.
func (c *Client) Stream(ctx context.Context, id string, req api.StreamRequest, fn func(api.StreamWindow) error) (api.StreamSummaryBody, error) {
	var sum api.StreamSummaryBody
	raw, err := json.Marshal(req)
	if err != nil {
		return sum, fmt.Errorf("client: marshal request: %w", err)
	}
	resp, err := c.Raw(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/stream", raw)
	if err != nil {
		return sum, err
	}
	if err := checkStatus(resp); err != nil {
		return sum, err
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	sawSummary := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		// Dispatch on the line shape: a summary line closes the stream,
		// an error line aborts it, anything else is a window.
		var probe struct {
			Summary *api.StreamSummaryBody `json:"summary"`
			Error   string                 `json:"error"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return sum, fmt.Errorf("client: bad stream line: %w", err)
		}
		switch {
		case probe.Error != "":
			return sum, &APIError{Status: http.StatusInternalServerError, Message: probe.Error}
		case probe.Summary != nil:
			sum = *probe.Summary
			sawSummary = true
		default:
			var win api.StreamWindow
			if err := json.Unmarshal(line, &win); err != nil {
				return sum, fmt.Errorf("client: bad stream window: %w", err)
			}
			if fn != nil {
				if err := fn(win); err != nil {
					return sum, err
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return sum, fmt.Errorf("client: stream read: %w", err)
	}
	if !sawSummary {
		return sum, fmt.Errorf("client: stream ended without a summary line")
	}
	return sum, nil
}

// Raw sends one request with an already encoded JSON body (empty =
// none) and returns the response whatever its status, retrying
// idempotent methods per WithRetry. The caller owns resp.Body. The
// cluster relay forwards session requests through it byte for byte.
func (c *Client) Raw(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd *bytes.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	return c.do(ctx, method, path, rd)
}

// FleetSubmit submits an asynchronous batch evaluation; poll the
// returned job id.
func (c *Client) FleetSubmit(ctx context.Context, req api.FleetSubmitRequest) (api.FleetJobStatus, error) {
	var out api.FleetJobStatus
	err := c.callJSON(ctx, http.MethodPost, "/v1/fleet", req, &out)
	return out, err
}

// FleetStatus fetches one job's progress.
func (c *Client) FleetStatus(ctx context.Context, id string) (api.FleetJobStatus, error) {
	var out api.FleetJobStatus
	err := c.callJSON(ctx, http.MethodGet, "/v1/fleet/"+url.PathEscape(id), nil, &out)
	return out, err
}

// FleetResults fetches a finished job's full results; a still-running
// job returns ErrConflict.
func (c *Client) FleetResults(ctx context.Context, id string) (api.FleetResultsResponse, error) {
	var out api.FleetResultsResponse
	err := c.callJSON(ctx, http.MethodGet, "/v1/fleet/"+url.PathEscape(id)+"/results", nil, &out)
	return out, err
}

// FleetList lists every retained job.
func (c *Client) FleetList(ctx context.Context) (api.FleetJobList, error) {
	var out api.FleetJobList
	err := c.callJSON(ctx, http.MethodGet, "/v1/fleet", nil, &out)
	return out, err
}

// FleetScenarios lists the server's registered workload scenarios.
func (c *Client) FleetScenarios(ctx context.Context) (api.FleetScenarioList, error) {
	var out api.FleetScenarioList
	err := c.callJSON(ctx, http.MethodGet, "/v1/fleet/scenarios", nil, &out)
	return out, err
}

// FleetDelete cancels a running job (partial results stay fetchable)
// or deletes a finished one.
func (c *Client) FleetDelete(ctx context.Context, id string) error {
	return c.callJSON(ctx, http.MethodDelete, "/v1/fleet/"+url.PathEscape(id), nil, nil)
}

// Metrics fetches the node's flat counter/gauge snapshot.
func (c *Client) Metrics(ctx context.Context) (map[string]uint64, error) {
	out := make(map[string]uint64)
	err := c.callJSON(ctx, http.MethodGet, "/metrics", nil, &out)
	return out, err
}
