package dlfs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/iofault"
	"repro/internal/med"
	"repro/internal/sqltypes"
)

// Server exposes a Manager over HTTP: the wire protocol between the
// database host's coordinator and a remote file-server host, plus plain
// file GET/PUT for browsers and archiving tools.
//
// Routes:
//
//	POST /dlfm/prepare  {"tx":1,"kind":0,"path":"/d/f","opts":{...}}
//	POST /dlfm/commit   {"tx":1}
//	POST /dlfm/abort    {"tx":1}
//	POST /dlfm/ensure   {"path":"/d/f","opts":{...}}
//	POST /dlfm/rename   {"old":"/a","new":"/b"}
//	POST /dlfm/remove   {"path":"/d/f"}
//	GET  /dlfm/stat?path=/d/f
//	GET  /dlfm/linked
//	GET  /dlfm/links
//	PUT  /files/<path>
//	GET  /files/<dir>/<token;file>          (token segment optional)
//	GET  /healthz
type Server struct {
	mgr *Manager
	mux *http.ServeMux
}

// NewServer wraps a manager in the HTTP daemon.
func NewServer(mgr *Manager) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux()}
	s.mux.HandleFunc("/dlfm/prepare", s.handlePrepare)
	s.mux.HandleFunc("/dlfm/commit", s.handleCommit)
	s.mux.HandleFunc("/dlfm/abort", s.handleAbort)
	s.mux.HandleFunc("/dlfm/ensure", s.handleEnsure)
	s.mux.HandleFunc("/dlfm/rename", s.handleRename)
	s.mux.HandleFunc("/dlfm/remove", s.handleRemove)
	s.mux.HandleFunc("/dlfm/stat", s.handleStat)
	s.mux.HandleFunc("/dlfm/linked", s.handleLinked)
	s.mux.HandleFunc("/dlfm/links", s.handleLinks)
	s.mux.HandleFunc("/files/", s.handleFiles)
	// A deployment's liveness probe; nothing in the archive calls it.
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// wire messages

type prepareReq struct {
	Tx   uint64                   `json:"tx"`
	Kind med.LinkOpKind           `json:"kind"`
	Path string                   `json:"path"`
	Opts sqltypes.DatalinkOptions `json:"opts"`
}

type txReq struct {
	Tx uint64 `json:"tx"`
}

type ensureReq struct {
	Path string                   `json:"path"`
	Opts sqltypes.DatalinkOptions `json:"opts"`
}

type renameReq struct {
	Old string `json:"old"`
	New string `json:"new"`
}

type pathReq struct {
	Path string `json:"path"`
}

type statResp struct {
	Path    string                   `json:"path"`
	Size    int64                    `json:"size"`
	ModTime time.Time                `json:"mod_time"`
	Linked  bool                     `json:"linked"`
	Opts    sqltypes.DatalinkOptions `json:"opts"` // meaningful when linked
}

func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrLinked), errors.Is(err, ErrWriteBlocked),
		errors.Is(err, ErrAlreadyLinked), errors.Is(err, ErrNotLinked):
		code = http.StatusConflict
	case errors.Is(err, ErrTokenRequired), errors.Is(err, med.ErrTokenExpired),
		errors.Is(err, med.ErrTokenTampered), errors.Is(err, med.ErrTokenWrongFile):
		code = http.StatusForbidden
	case errors.Is(err, ErrBadPath):
		code = http.StatusBadRequest
	}
	http.Error(w, err.Error(), code)
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req prepareReq
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := s.mgr.Prepare(req.Tx, med.LinkOp{Kind: req.Kind, Path: req.Path, Opts: req.Opts}); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	var req txReq
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := s.mgr.Commit(req.Tx); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (s *Server) handleAbort(w http.ResponseWriter, r *http.Request) {
	var req txReq
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := s.mgr.Abort(req.Tx); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (s *Server) handleEnsure(w http.ResponseWriter, r *http.Request) {
	var req ensureReq
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := s.mgr.EnsureLinked(req.Path, req.Opts); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (s *Server) handleRename(w http.ResponseWriter, r *http.Request) {
	var req renameReq
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := s.mgr.Rename(req.Old, req.New); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	var req pathReq
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := s.mgr.Remove(req.Path); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (s *Server) handleStat(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Query().Get("path")
	fi, err := s.mgr.Stat(path)
	if err != nil {
		writeErr(w, err)
		return
	}
	json.NewEncoder(w).Encode(statResp{
		Path: fi.Path, Size: fi.Size, ModTime: fi.ModTime, Linked: fi.Linked, Opts: fi.Opts,
	})
}

func (s *Server) handleLinked(w http.ResponseWriter, r *http.Request) {
	states := s.mgr.LinkStates()
	paths := make([]string, 0, len(states))
	for _, ls := range states {
		if ls.Tombstone() {
			continue // unlink tombstones are registry metadata, not links
		}
		paths = append(paths, ls.Path)
	}
	json.NewEncoder(w).Encode(paths)
}

// handleLinks serves the full registry — paths plus options and link
// times, unlink tombstones included (Client.LinkStates).
func (s *Server) handleLinks(w http.ResponseWriter, r *http.Request) {
	json.NewEncoder(w).Encode(s.mgr.LinkStates())
}

// handleFiles serves uploads and (token-gated) downloads. The download
// URL carries the access token the way the paper shows:
// /files/dir/access_token;filename. The token is split off the path as
// it was sent, before unescaping, so an escaped ';' (%3B) is part of a
// file name.
func (s *Server) handleFiles(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPut:
		n, err := s.mgr.Put(strings.TrimPrefix(r.URL.Path, "/files"), r.Body)
		if err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintf(w, "%d bytes stored\n", n)
	case http.MethodGet:
		path, token := sqltypes.SplitTokenizedPath(strings.TrimPrefix(r.URL.EscapedPath(), "/files"))
		path, err := url.PathUnescape(path)
		if err == nil {
			token, err = url.PathUnescape(token)
		}
		if err != nil {
			writeErr(w, fmt.Errorf("%w: %v", ErrBadPath, err))
			return
		}
		rc, fi, err := s.mgr.Open(path, token)
		if err != nil {
			writeErr(w, err)
			return
		}
		defer rc.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(fi.Size, 10))
		w.Header().Set("Last-Modified", fi.ModTime.UTC().Format(http.TimeFormat))
		iofault.Copy(w, rc) //nolint:errcheck // client disconnects are not server errors
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}
