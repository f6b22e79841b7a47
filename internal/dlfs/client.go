package dlfs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/med"
	"repro/internal/sqltypes"
)

// Client is the database host's handle on a remote file-manager daemon.
// It implements med.FileServer over the dlfs HTTP protocol, so a
// Coordinator can drive remote hosts exactly like in-process Managers.
//
// Every RPC is one HTTP request under the client's context
// (WithContext); a transport error or an error status reaches the
// caller as it happened. The tx-keyed link-control verbs are safe for a
// caller to repeat, since the daemon deduplicates them by transaction
// ID; Put, Rename and Remove are not.
type Client struct {
	host    string // host[:port] as it appears in DATALINK URLs
	baseURL string // e.g. "http://host:port"
	hc      *http.Client
	ctx     context.Context
}

// NewClient returns a client for the daemon at baseURL serving DATALINK
// host name host.
func NewClient(host, baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{host: host, baseURL: strings.TrimSuffix(baseURL, "/"), hc: hc, ctx: context.Background()}
}

// Host implements med.FileServer.
func (c *Client) Host() string { return c.host }

// WithContext returns a copy of the client whose RPCs are bounded by
// ctx: cancellation or a deadline aborts the in-flight request. The
// receiver is unchanged, so a shared base client can hand out
// per-request views cheaply. It is the seam a request context takes
// from the browser to the file server (ROADMAP item 29).
func (c *Client) WithContext(ctx context.Context) *Client {
	cc := *c
	cc.ctx = ctx
	return &cc
}

// roundTrip issues one request under the client's context. The caller
// owns the response body.
func (c *Client) roundTrip(method, url, contentType string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(c.ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return c.hc.Do(req)
}

func (c *Client) post(path string, body any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.roundTrip(http.MethodPost, c.baseURL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	return nil
}

// get issues a GET. The caller owns resp.Body.
func (c *Client) get(url string) (*http.Response, error) {
	return c.roundTrip(http.MethodGet, url, "", nil)
}

// statusError reads a failed response's message and maps it onto the
// store's sentinel errors.
func statusError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return remoteError(resp.StatusCode, strings.TrimSpace(string(msg)))
}

// remoteError maps HTTP status codes back onto the store's sentinel
// errors so callers can errors.Is on either side of the wire.
func remoteError(code int, msg string) error {
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
	return fmt.Errorf("dlfs: remote: %s", msg)
}

// Prepare implements med.FileServer.
func (c *Client) Prepare(txID uint64, op med.LinkOp) error {
	return c.post("/dlfm/prepare", prepareReq{Tx: txID, Kind: op.Kind, Path: op.Path, Opts: op.Opts})
}

// Commit implements med.FileServer.
func (c *Client) Commit(txID uint64) error { return c.post("/dlfm/commit", txReq{Tx: txID}) }

// Abort implements med.FileServer. A failure is surfaced — an
// unreachable daemon still holds the staged prepare and its path
// reservations, so the coordinator queues the abort for retry rather
// than letting a rolled-back transaction leak files on that server.
func (c *Client) Abort(txID uint64) error { return c.post("/dlfm/abort", txReq{Tx: txID}) }

// EnsureLinked implements med.FileServer.
func (c *Client) EnsureLinked(path string, opts sqltypes.DatalinkOptions) error {
	return c.post("/dlfm/ensure", ensureReq{Path: path, Opts: opts})
}

// Put uploads a file to the remote store.
func (c *Client) Put(path string, r io.Reader) error {
	resp, err := c.roundTrip(http.MethodPut, c.filesURL(path, ""), "", r)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return statusError(resp)
	}
	return nil
}

// Open downloads a file; token may be empty for READ PERMISSION FS files.
func (c *Client) Open(path, token string) (io.ReadCloser, error) {
	resp, err := c.get(c.filesURL(path, token))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, statusError(resp)
	}
	return resp.Body, nil
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

// Stat queries file metadata.
func (c *Client) Stat(path string) (FileInfo, error) {
	resp, err := c.get(c.baseURL + "/dlfm/stat?path=" + url.QueryEscape(path))
	if err != nil {
		return FileInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return FileInfo{}, statusError(resp)
	}
	var sr statResp
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return FileInfo{}, err
	}
	// The path asked about, not the reply's: JSON cannot carry a path
	// that is not UTF-8.
	return FileInfo{Path: path, Size: sr.Size, ModTime: sr.ModTime, Linked: sr.Linked, Opts: sr.Opts}, nil
}

// LinkStates fetches the daemon's full link registry, unlink tombstones
// included. It stays for the two-sided Reconcile that compares a host's
// links with the database's URLs (ROADMAP item 10(a)).
func (c *Client) LinkStates() ([]LinkState, error) {
	resp, err := c.get(c.baseURL + "/dlfm/links")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp)
	}
	var states []LinkState
	if err := json.NewDecoder(resp.Body).Decode(&states); err != nil {
		return nil, err
	}
	return states, nil
}

// Rename asks the remote store to rename a file (refused while linked).
func (c *Client) Rename(oldPath, newPath string) error {
	return c.post("/dlfm/rename", renameReq{Old: oldPath, New: newPath})
}

// Remove asks the remote store to delete a file (refused while linked).
func (c *Client) Remove(path string) error {
	return c.post("/dlfm/remove", pathReq{Path: path})
}

var _ med.FileServer = (*Client)(nil)
