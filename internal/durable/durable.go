// Package durable is the one crash-safe file discipline shared by the
// on-disk stores (the job records of internal/jobs and the circuit
// uploads of internal/service). Every document is <dir>/<key>.json and
// is replaced atomically: the bytes go to a dot-prefixed temp file in
// the same directory, are fsynced, and the temp file is renamed over
// the document, after which the directory itself is fsynced. A crash
// at any point leaves either the previous complete document or the new
// one, never a torn one, plus at most a stale ".<key>.tmp-*" file that
// OpenDir sweeps.
package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
)

// OpenDir creates dir if missing and removes the temp files left by
// writes a crash interrupted: a dot-prefixed ".<key>.tmp-*" file is a
// WriteFile whose rename never happened, so its content was never
// promised to a reader — deleting it is the correct recovery (the
// previous complete document, if any, is still in place). It returns
// the directory's remaining entries for the caller's own scan.
func OpenDir(dir string) ([]os.DirEntry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating directory: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("scanning directory: %w", err)
	}
	kept := entries[:0]
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp-") {
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		kept = append(kept, e)
	}
	return kept, nil
}

// WriteFile atomically replaces <dir>/<key>.json with data: temp file,
// write, fsync, close, rename, directory fsync. When it returns nil the
// document and its directory entry have reached the disk; on error the
// previous document (if any) is untouched and the temp file is removed.
func WriteFile(dir, key string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "."+key+".tmp-")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	// fsync before the rename and fsync the directory after it: the
	// rename must never become visible ahead of the bytes it points to,
	// and the new directory entry itself must reach the disk — otherwise
	// a power cut can roll a document back to an older (or missing)
	// version after the caller already promised durability.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("syncing: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, key+".json")); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs dir so a just-renamed document's directory entry is
// durable. Filesystems that refuse to sync a directory handle (some CI
// sandboxes and network mounts) degrade durability, not availability:
// the rename already happened, so the document is visible to every
// reader.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("opening directory for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("syncing directory: %w", err)
	}
	return nil
}
