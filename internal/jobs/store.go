package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"glitchsim/internal/durable"
)

// Store persists job records across manager restarts. The manager
// writes a record on every lifecycle transition (queued, running,
// terminal, checkpoint), so at any instant the store holds a
// recoverable snapshot: terminal records keep serving their results
// after a restart, queued/running records are re-enqueued.
//
// Implementations must be safe for concurrent use. Store failures are
// logged by the manager but never fail the job itself — an unwritable
// disk degrades durability, not availability.
type Store interface {
	// Put writes (or overwrites) the record keyed by its ID.
	Put(rec Record) error
	// Get reads one record; the boolean reports whether it exists.
	Get(id string) (Record, bool, error)
	// List returns every stored record, in no particular order.
	List() ([]Record, error)
	// Delete removes a record (missing IDs are not an error).
	Delete(id string) error
}

// MemStore is the in-memory Store: durable across manager drains within
// one process, gone with it. The zero value is not usable; call
// NewMemStore.
type MemStore struct {
	mu   sync.Mutex
	recs map[string]Record
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{recs: make(map[string]Record)} }

// Put implements Store.
func (s *MemStore) Put(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs[rec.ID] = rec.Clone()
	return nil
}

// Get implements Store.
func (s *MemStore) Get(id string) (Record, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.recs[id]
	if !ok {
		return Record{}, false, nil
	}
	return rec.Clone(), true, nil
}

// List implements Store.
func (s *MemStore) List() ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, len(s.recs))
	for _, rec := range s.recs {
		out = append(out, rec.Clone())
	}
	return out, nil
}

// Delete implements Store.
func (s *MemStore) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.recs, id)
	return nil
}

// FileStore persists each record as one pretty-printed JSON document,
// <dir>/<id>.json, written atomically and fsynced (durable.WriteFile)
// so a crash mid-write never leaves a truncated record. Job IDs are 16
// hex digits (see newID), so the ID is used as the file name verbatim;
// defensive validation rejects anything else to keep the store inside
// its directory.
type FileStore struct {
	dir string
	mu  sync.Mutex
}

// NewFileStore opens (creating if needed) the store directory and
// sweeps temp files left by writes a crash interrupted (see
// durable.OpenDir): the previous complete version of each record, if
// any, is still in place.
func NewFileStore(dir string) (*FileStore, error) {
	if _, err := durable.OpenDir(dir); err != nil {
		return nil, fmt.Errorf("jobs: opening store: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *FileStore) Dir() string { return s.dir }

func (s *FileStore) path(id string) (string, error) {
	if id == "" || strings.ContainsAny(id, "/\\.") {
		return "", fmt.Errorf("jobs: invalid job id %q", id)
	}
	return filepath.Join(s.dir, id+".json"), nil
}

// Put implements Store.
func (s *FileStore) Put(rec Record) error {
	if _, err := s.path(rec.ID); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: encoding record %s: %w", rec.ID, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := durable.WriteFile(s.dir, rec.ID, append(data, '\n')); err != nil {
		return fmt.Errorf("jobs: writing record %s: %w", rec.ID, err)
	}
	return nil
}

// Get implements Store.
func (s *FileStore) Get(id string) (Record, bool, error) {
	path, err := s.path(id)
	if err != nil {
		return Record{}, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Record{}, false, nil
	}
	if err != nil {
		return Record{}, false, fmt.Errorf("jobs: reading record %s: %w", id, err)
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return Record{}, false, fmt.Errorf("jobs: decoding record %s: %w", id, err)
	}
	return rec, true, nil
}

// List implements Store. A record that fails to decode (e.g. a file
// damaged outside the store's control) is skipped rather than poisoning
// recovery of the rest; the first such error is reported alongside the
// readable records.
func (s *FileStore) List() ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: listing store: %w", err)
	}
	var out []Record
	var firstErr error
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("jobs: reading %s: %w", name, err)
			}
			continue
		}
		var rec Record
		if err := json.Unmarshal(data, &rec); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("jobs: decoding %s: %w", name, err)
			}
			continue
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CreatedAt.Before(out[j].CreatedAt) })
	return out, firstErr
}

// Delete implements Store.
func (s *FileStore) Delete(id string) error {
	path, err := s.path(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("jobs: deleting record %s: %w", id, err)
	}
	return nil
}
