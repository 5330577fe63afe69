package service

import (
	"bytes"
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"glitchsim"
	"glitchsim/netlist"
	"glitchsim/verilog"
)

// The circuit-upload layer: POST /v1/circuits parses a Verilog or JSON
// circuit description and stores the netlist in a bounded LRU keyed by
// its structural fingerprint. Measurement requests then reference the
// upload as `circuit: <fingerprint>` (or by its module name); because
// the fingerprint is also the Engine's compiled-netlist cache key,
// repeated measurements of an upload compile once, exactly like the
// built-ins.

// DefaultUploadCapacity is the number of uploaded circuits a Server
// retains when WithUploadCapacity is not given. It bounds upload memory
// alongside the Engine's compiled-netlist cache: evicting an upload
// also makes its (fingerprint-keyed) compiled form unreachable, so the
// two caches age out together.
const DefaultUploadCapacity = 64

// Option configures a Server at construction.
type Option func(*Server)

// WithUploadCapacity bounds the circuit-upload store to n entries (LRU
// eviction; n <= 0 disables uploads entirely: POST /v1/circuits returns
// 503).
func WithUploadCapacity(n int) Option {
	return func(s *Server) {
		if n < 0 {
			n = 0
		}
		s.uploads.cap = n
	}
}

// upload is one stored circuit.
type upload struct {
	n    *netlist.Netlist
	info CircuitInfo
}

// uploadStore is the bounded fingerprint-keyed LRU of uploaded
// circuits, optionally backed by a durable on-disk store (disk non-nil,
// see WithUploadDir): puts write through to disk, misses fall back to
// it, and LRU eviction only drops the in-memory copy. Safe for
// concurrent use; disk calls happen outside the store's own lock.
type uploadStore struct {
	mu   sync.Mutex
	cap  int
	lru  *list.List // of *upload; front = most recently used
	byFP map[string]*list.Element
	disk *circuitDisk
}

func newUploadStore(capacity int) *uploadStore {
	return &uploadStore{cap: capacity, lru: list.New(), byFP: map[string]*list.Element{}}
}

// put stores (or refreshes) a circuit, writes it through to the durable
// store, and returns its handle. The least recently used upload is
// evicted past the capacity bound (from memory only — never from disk).
// A failed durable write is returned alongside the handle: the circuit
// stays resolvable from memory, but the caller must not report it as
// persisted.
func (u *uploadStore) put(n *netlist.Netlist) (CircuitInfo, error) {
	info := u.putMem(n)
	if u.disk != nil {
		return info, u.disk.save(n, info)
	}
	return info, nil
}

// putMem is the memory-only half of put: the durable store's lazy
// reloads use it to avoid rewriting what was just read from disk.
func (u *uploadStore) putMem(n *netlist.Netlist) CircuitInfo {
	info := CircuitInfoFrom(n)
	u.mu.Lock()
	defer u.mu.Unlock()
	if el, ok := u.byFP[info.Fingerprint]; ok {
		u.lru.MoveToFront(el)
		return el.Value.(*upload).info
	}
	u.byFP[info.Fingerprint] = u.lru.PushFront(&upload{n: n, info: info})
	if u.lru.Len() > u.cap {
		oldest := u.lru.Back()
		u.lru.Remove(oldest)
		delete(u.byFP, oldest.Value.(*upload).info.Fingerprint)
	}
	return info
}

// byFingerprint returns the upload with the given fingerprint,
// refreshing its recency. A memory miss falls back to the durable
// store, reloading the circuit into the LRU — this is how uploads from
// before a restart (or evicted under memory pressure) resolve.
func (u *uploadStore) byFingerprint(fp string) (*netlist.Netlist, bool) {
	u.mu.Lock()
	if el, ok := u.byFP[fp]; ok {
		u.lru.MoveToFront(el)
		n := el.Value.(*upload).n
		u.mu.Unlock()
		return n, true
	}
	u.mu.Unlock()
	if u.disk != nil {
		if n, ok := u.disk.load(fp); ok {
			u.putMem(n)
			return n, true
		}
	}
	return nil, false
}

// byName returns the most recently used upload whose module name
// matches, falling back to the durable store.
func (u *uploadStore) byName(name string) (*netlist.Netlist, bool) {
	u.mu.Lock()
	for el := u.lru.Front(); el != nil; el = el.Next() {
		if up := el.Value.(*upload); up.info.Name == name {
			u.lru.MoveToFront(el)
			n := up.n
			u.mu.Unlock()
			return n, true
		}
	}
	u.mu.Unlock()
	if u.disk != nil {
		if fp, ok := u.disk.fingerprintByName(name); ok {
			return u.byFingerprint(fp)
		}
	}
	return nil, false
}

// snapshot returns the upload handles: in-memory entries most recently
// used first, then durable-only entries (persisted but not currently
// resident).
func (u *uploadStore) snapshot() []CircuitInfo {
	u.mu.Lock()
	out := make([]CircuitInfo, 0, u.lru.Len())
	seen := make(map[string]bool, u.lru.Len())
	for el := u.lru.Front(); el != nil; el = el.Next() {
		info := el.Value.(*upload).info
		out = append(out, info)
		seen[info.Fingerprint] = true
	}
	u.mu.Unlock()
	if u.disk != nil {
		for _, info := range u.disk.snapshot() {
			if !seen[info.Fingerprint] {
				out = append(out, info)
			}
		}
	}
	return out
}

// resolve maps a request's circuit identifier to a netlist. Every
// endpoint and the job layer resolve through it, in order: upload
// fingerprints (self-certifying 64-hex handles), then the Engine's
// source chain (custom CircuitSources, then the built-in registry),
// then uploaded module names (the most recent upload wins a name
// collision). A miss wraps glitchsim.ErrUnknownCircuit and lists every
// identifier that would have resolved; a source that knew the name but
// failed returns its own error.
//
// The upload store is deliberately NOT registered as a
// glitchsim.CircuitSource on the Engine: the Engine is constructed by
// the caller (and may be shared with non-HTTP users), while uploads are
// request-surface state owned by this Server — mutating a caller's
// engine would leak them across surfaces.
func (s *Server) resolve(name string) (*netlist.Netlist, error) {
	if n, ok := s.uploads.byFingerprint(name); ok {
		return n, nil
	}
	n, err := s.engine.Resolve(glitchsim.CircuitNamed(name))
	if !errors.Is(err, glitchsim.ErrUnknownCircuit) {
		return n, err
	}
	if n, ok := s.uploads.byName(name); ok {
		return n, nil
	}
	names := s.engine.CircuitNames()
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		seen[n] = true
	}
	for _, info := range s.uploads.snapshot() {
		names = append(names, info.Fingerprint)
		if !seen[info.Name] {
			seen[info.Name] = true
			names = append(names, info.Name)
		}
	}
	return nil, fmt.Errorf("%w %q (available: %s)", glitchsim.ErrUnknownCircuit, name, strings.Join(names, ", "))
}

// handleCircuits serves GET /v1/circuits (catalogue listing) and POST
// /v1/circuits (upload).
func (s *Server) handleCircuits(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.writeOK(w, CircuitsResponse{
			Builtin: s.engine.CircuitNames(),
			Uploads: s.uploads.snapshot(),
		})
	case http.MethodPost:
		s.handleUpload(w, r)
	default:
		s.writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("use GET or POST"))
	}
}

// maxUploadBytes bounds a single circuit upload.
const maxUploadBytes = 4 << 20

// handleUpload parses an uploaded circuit description and stores it.
// Two request shapes are accepted: a JSON envelope {"format": "verilog"
// |"json", "source": "..."} or, with ?format=verilog|json, the raw
// source as the body (curl -T friendly). Malformed sources answer 400
// with the parser's message — line-numbered for Verilog.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	if s.uploads.cap <= 0 {
		s.writeError(w, http.StatusServiceUnavailable, CodeUploadsDisabled, fmt.Errorf("circuit uploads are disabled"))
		return
	}
	format := r.URL.Query().Get("format")
	var src []byte
	if format != "" {
		body, err := readBody(w, r)
		if err != nil {
			s.writeBodyError(w, err)
			return
		}
		src = body
	} else {
		// Decode the JSON envelope under the same size bound as the raw
		// shape (the generic decodeParams limit is tighter).
		var req UploadRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.writeBodyError(w, fmt.Errorf("invalid JSON body: %w", err))
			return
		}
		format = req.Format
		src = []byte(req.Source)
	}
	var n *netlist.Netlist
	var err error
	switch format {
	case "verilog":
		n, err = verilog.Parse(bytes.NewReader(src))
	case "json":
		n, err = netlist.ReadJSON(bytes.NewReader(src))
	default:
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("format must be \"verilog\" or \"json\", got %q", format))
		return
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	// Lint before storing: warning-severity findings (floating inputs,
	// dead cones, undriven nets) ride along in the reply so the client
	// learns immediately that the netlist is probably not what its
	// source meant, without the upload being rejected.
	var warnings []netlist.Finding
	for _, f := range n.Lint() {
		if f.Severity == netlist.SeverityWarning {
			warnings = append(warnings, f)
		}
	}
	info, err := s.uploads.put(n)
	if err != nil {
		// The detail names server paths: log it, answer generically.
		s.logf("service: %v", err)
		s.writeError(w, http.StatusInternalServerError, CodeInternal, fmt.Errorf("upload %s could not be persisted", info.Fingerprint))
		return
	}
	s.writeOK(w, UploadResponse{CircuitInfo: info, Warnings: warnings})
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	if err != nil {
		return nil, fmt.Errorf("reading upload body: %w", err)
	}
	return body, nil
}
