package dlfs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/med"
	"repro/internal/sqltypes"
)

// Client is the database host's handle on a remote file-manager daemon.
// It implements med.FileServer over the dlfs HTTP protocol, so a
// Coordinator can drive remote hosts exactly like in-process Managers.
//
// Every RPC honours the client's context (WithContext) and optional
// per-attempt deadline (SetRPCTimeout). Idempotent RPCs — health
// probes, metadata reads, downloads, and the tx-keyed link-control
// verbs, which the daemon deduplicates by transaction ID — can retry
// transient failures (transport errors, HTTP 502/503/504) with
// jittered exponential backoff (SetRetry). Mutating file operations
// (Put, Rename, Remove) never retry: a duplicate apply is observable.
type Client struct {
	host    string // host[:port] as it appears in DATALINK URLs
	baseURL string // e.g. "http://host:port"
	hc      *http.Client

	ctx        context.Context // nil = context.Background()
	rpcTimeout time.Duration   // per-attempt deadline; 0 = unbounded
	retries    int             // extra attempts for idempotent RPCs
	backoff    time.Duration   // base backoff between attempts
}

// NewClient returns a client for the daemon at baseURL serving DATALINK
// host name host.
func NewClient(host, baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{host: host, baseURL: strings.TrimSuffix(baseURL, "/"), hc: hc}
}

// Host implements med.FileServer.
func (c *Client) Host() string { return c.host }

// WithContext returns a copy of the client whose RPCs are bounded by
// ctx: cancellation aborts in-flight requests and backoff waits. The
// receiver is unchanged, so a shared base client can hand out
// per-statement views cheaply.
func (c *Client) WithContext(ctx context.Context) *Client {
	cc := *c
	cc.ctx = ctx
	return &cc
}

// SetRPCTimeout bounds each RPC attempt (not the whole retry sequence)
// to d. Zero removes the bound. A caller context with an earlier
// deadline still wins.
func (c *Client) SetRPCTimeout(d time.Duration) { c.rpcTimeout = d }

// SetRetry allows up to extra additional attempts for idempotent RPCs,
// spaced by jittered exponential backoff starting at base (50ms when
// base <= 0). Retries are off by default so failure injection and
// breaker accounting observe every fault exactly once unless a
// deployment opts in.
func (c *Client) SetRetry(extra int, base time.Duration) {
	c.retries = extra
	c.backoff = base
}

// retryableStatus reports whether an HTTP status is a transient
// server/gateway condition worth retrying.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable || code == http.StatusGatewayTimeout
}

// sleepBackoff waits out the attempt-th backoff window (exponential,
// capped at 2s, with ±50% jitter so synchronized clients desynchronize)
// unless ctx ends first.
func sleepBackoff(ctx context.Context, base time.Duration, attempt int) error {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	d := base << uint(attempt)
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// roundTrip issues the request built by newReq, retrying transient
// failures for idempotent RPCs. On success the caller owns the response
// body and must invoke cancel after closing it (the per-attempt
// deadline stays armed while the body streams).
func (c *Client) roundTrip(idem bool, newReq func() (*http.Request, error)) (*http.Response, context.CancelFunc, error) {
	base := c.ctx
	if base == nil {
		base = context.Background()
	}
	attempts := 1
	if idem && c.retries > 0 {
		attempts += c.retries
	}
	var lastErr error
	for i := 0; ; i++ {
		if err := base.Err(); err != nil {
			return nil, nil, err
		}
		ctx, cancel := base, context.CancelFunc(func() {})
		if c.rpcTimeout > 0 {
			ctx, cancel = context.WithTimeout(base, c.rpcTimeout)
		}
		req, err := newReq()
		if err != nil {
			cancel()
			return nil, nil, err
		}
		resp, err := c.hc.Do(req.WithContext(ctx))
		if err == nil && !retryableStatus(resp.StatusCode) {
			return resp, cancel, nil
		}
		if err == nil {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			lastErr = remoteError(resp.StatusCode, strings.TrimSpace(string(msg)))
		} else {
			lastErr = err
		}
		cancel()
		if i+1 >= attempts {
			return nil, nil, lastErr
		}
		if err := sleepBackoff(base, c.backoff, i); err != nil {
			return nil, nil, err
		}
	}
}

func (c *Client) post(path string, body any, idem bool) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, cancel, err := c.roundTrip(idem, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, c.baseURL+path, bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	if err != nil {
		return err
	}
	defer cancel()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return remoteError(resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return nil
}

// get issues a GET through the retry/deadline layer. The caller owns
// resp.Body and must call cancel after closing it.
func (c *Client) get(url string) (*http.Response, context.CancelFunc, error) {
	return c.roundTrip(true, func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, url, nil)
	})
}

// remoteError maps HTTP status codes back onto the store's sentinel
// errors so callers can errors.Is on either side of the wire.
func remoteError(code int, msg string) error {
	base := fmt.Errorf("dlfs: remote: %s", msg)
	switch code {
	case http.StatusNotFound:
		return fmt.Errorf("%w: %s", ErrNotFound, msg)
	case http.StatusConflict:
		switch {
		case strings.Contains(msg, "already linked"):
			return fmt.Errorf("%w: %s", ErrAlreadyLinked, msg)
		case strings.Contains(msg, "not linked"):
			return fmt.Errorf("%w: %s", ErrNotLinked, msg)
		case strings.Contains(msg, "WRITE PERMISSION"):
			return fmt.Errorf("%w: %s", ErrWriteBlocked, msg)
		default:
			return fmt.Errorf("%w: %s", ErrLinked, msg)
		}
	case http.StatusForbidden:
		switch {
		case strings.Contains(msg, "expired"):
			return med.ErrTokenExpired
		case strings.Contains(msg, "different file"):
			return med.ErrTokenWrongFile
		case strings.Contains(msg, "token required"):
			return fmt.Errorf("%w: %s", ErrTokenRequired, msg)
		default:
			return med.ErrTokenTampered
		}
	case http.StatusBadRequest:
		return fmt.Errorf("%w: %s", ErrBadPath, msg)
	}
	return base
}

// Prepare implements med.FileServer. Tx-keyed on the daemon, so a
// retried prepare lands on the same staged transaction.
func (c *Client) Prepare(txID uint64, op med.LinkOp) error {
	return c.post("/dlfm/prepare", prepareReq{Tx: txID, Kind: op.Kind, Path: op.Path, Opts: op.Opts}, true)
}

// Commit implements med.FileServer.
func (c *Client) Commit(txID uint64) error { return c.post("/dlfm/commit", txReq{Tx: txID}, true) }

// Abort implements med.FileServer. A failure is surfaced — an
// unreachable daemon still holds the staged prepare and its path
// reservations, so the coordinator queues the abort for retry rather
// than letting a rolled-back transaction leak files on that server.
func (c *Client) Abort(txID uint64) error { return c.post("/dlfm/abort", txReq{Tx: txID}, true) }

// EnsureLinked implements med.FileServer.
func (c *Client) EnsureLinked(path string, opts sqltypes.DatalinkOptions) error {
	return c.post("/dlfm/ensure", ensureReq{Path: path, Opts: opts}, true)
}

// Put uploads a file to the remote store. Never retried: the body
// stream is consumed by the first attempt and a duplicate apply is
// observable.
func (c *Client) Put(path string, r io.Reader) error {
	resp, cancel, err := c.roundTrip(false, func() (*http.Request, error) {
		return http.NewRequest(http.MethodPut, c.filesURL(path, ""), r)
	})
	if err != nil {
		return err
	}
	defer cancel()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return remoteError(resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return nil
}

// Open downloads a file; token may be empty for READ PERMISSION FS files.
func (c *Client) Open(path, token string) (io.ReadCloser, error) {
	rc, _, err := c.OpenStat(path, token)
	return rc, err
}

// OpenStat downloads a file and rebuilds its FileInfo from the
// response headers — one round trip, which is what the replication
// tier's failover reads use.
func (c *Client) OpenStat(path, token string) (io.ReadCloser, FileInfo, error) {
	resp, cancel, err := c.get(c.filesURL(path, token))
	if err != nil {
		return nil, FileInfo{}, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		cancel()
		return nil, FileInfo{}, remoteError(resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	fi := FileInfo{Path: path, Size: resp.ContentLength, Linked: resp.Header.Get("X-Dlfs-Linked") == "true"}
	if t, terr := http.ParseTime(resp.Header.Get("Last-Modified")); terr == nil {
		fi.ModTime = t
	}
	// The per-attempt deadline stays armed while the caller streams the
	// body; Close releases it.
	return &cancelReadCloser{rc: resp.Body, cancel: cancel}, fi, nil
}

// filesURL is the /files URL of path, with token, if any, in the
// tokenized dir/token;file form. The path is escaped, ';' included, so
// every byte of it reaches the server as itself and the one literal ';'
// is the token's.
func (c *Client) filesURL(path, token string) string {
	esc := strings.ReplaceAll((&url.URL{Path: path}).EscapedPath(), ";", "%3B")
	if token == "" {
		return c.baseURL + "/files" + esc
	}
	i := strings.LastIndexByte(esc, '/') + 1
	return c.baseURL + "/files" + esc[:i] + url.PathEscape(token) + ";" + esc[i:]
}

// cancelReadCloser couples a streamed response body to its RPC
// deadline: closing the body releases the context timer.
type cancelReadCloser struct {
	rc     io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelReadCloser) Read(p []byte) (int, error) { return c.rc.Read(p) }

func (c *cancelReadCloser) Close() error {
	err := c.rc.Close()
	c.cancel()
	return err
}

// Stat queries file metadata.
func (c *Client) Stat(path string) (FileInfo, error) {
	resp, cancel, err := c.get(c.baseURL + "/dlfm/stat?path=" + url.QueryEscape(path))
	if err != nil {
		return FileInfo{}, err
	}
	defer cancel()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return FileInfo{}, remoteError(resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var sr statResp
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return FileInfo{}, err
	}
	// The path asked about, not the reply's: JSON cannot carry a path
	// that is not UTF-8.
	return FileInfo{Path: path, Size: sr.Size, ModTime: sr.ModTime, Linked: sr.Linked, Opts: sr.Opts}, nil
}

// Ping probes the daemon's health endpoint (the cluster's failure
// detector calls it periodically).
func (c *Client) Ping() error {
	resp, cancel, err := c.get(c.baseURL + "/healthz")
	if err != nil {
		return err
	}
	defer cancel()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dlfs: health probe of %s: HTTP %d", c.host, resp.StatusCode)
	}
	return nil
}

// LinkStates fetches the daemon's full link registry (anti-entropy).
func (c *Client) LinkStates() ([]LinkState, error) {
	resp, cancel, err := c.get(c.baseURL + "/dlfm/links")
	if err != nil {
		return nil, err
	}
	defer cancel()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, remoteError(resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var states []LinkState
	if err := json.NewDecoder(resp.Body).Decode(&states); err != nil {
		return nil, err
	}
	return states, nil
}

// Rename asks the remote store to rename a file (refused while linked).
// Not retried: a repeat of a succeeded-but-unacknowledged rename fails
// with ErrNotFound.
func (c *Client) Rename(oldPath, newPath string) error {
	return c.post("/dlfm/rename", renameReq{Old: oldPath, New: newPath}, false)
}

// Remove asks the remote store to delete a file (refused while linked).
// Not retried, like Rename.
func (c *Client) Remove(path string) error {
	return c.post("/dlfm/remove", pathReq{Path: path}, false)
}

var _ med.FileServer = (*Client)(nil)
