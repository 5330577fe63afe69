package durable

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOpenDirSweepsTemps: OpenDir creates a missing directory, removes
// interrupted writes' temp files and returns everything else.
func TestOpenDirSweepsTemps(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if _, err := OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{".a.tmp-1", ".b.tmp-22", "c.json", ".keep"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got := strings.Join(names, ","); got != ".keep,c.json" {
		t.Errorf("entries after sweep = %q, want .keep,c.json", got)
	}
	if _, err := os.Stat(filepath.Join(dir, ".a.tmp-1")); !os.IsNotExist(err) {
		t.Errorf("temp file survived the sweep: %v", err)
	}
}
