package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{2, 2, 9, 1, 2}, 2},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median(nil) = %v, want NaN", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, the definition the benchmark's
// spread check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.2, 1.5, 9.9}, [3]float64{1.5, 3.2, 9.9}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{0.5, 0.25, 8, 16, 2, 4, 1}, [3]float64{0.5, 2, 8}},
	} {
		got := quartiles(tc.xs)
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
	if got := quartiles([]float64{1}); !math.IsNaN(got[1]) {
		t.Errorf("quartiles of one value = %v, want NaNs", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000 … 1, so sorting matters
	}
	for _, tc := range []struct {
		pct    int
		want   float64
		beyond int
	}{
		{50, 500, 500},
		{95, 950, 50},
		{99, 990, 10},
		{100, 1000, 0},
		{1, 10, 990},
	} {
		got, beyond := percentile(xs, tc.pct)
		if got != tc.want || beyond != tc.beyond {
			t.Errorf("p%d = %v with %d beyond, want %v with %d", tc.pct, got, beyond, tc.want, tc.beyond)
		}
	}
	if got, beyond := percentile([]float64{7}, 99); got != 7 || beyond != 0 {
		t.Errorf("p99 of one sample = %v with %d beyond, want 7 with 0", got, beyond)
	}
	if got, _ := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
}

// TestTailNeedsTenBeyond checks the rule that a reported tail
// percentile has at least ten samples beyond it: samplesForTail is the
// first count where that holds, and one sample fewer breaks it.
func TestTailNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct{ pct, want int }{{50, 20}, {75, 40}, {90, 100}, {95, 200}, {99, 1000}} {
		n := samplesForTail(tc.pct)
		if n != tc.want {
			t.Errorf("samplesForTail(%d) = %d, want %d", tc.pct, n, tc.want)
		}
		if _, beyond := percentile(make([]float64, n), tc.pct); beyond < minTailBeyond {
			t.Errorf("p%d of %d samples has %d beyond, want >= %d", tc.pct, n, beyond, minTailBeyond)
		}
		if _, beyond := percentile(make([]float64, n-1), tc.pct); beyond >= minTailBeyond {
			t.Errorf("p%d of %d samples already has %d beyond; samplesForTail is not the fewest", tc.pct, n-1, beyond)
		}
	}
}

func TestSummarize(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i, v := range []float64{4, 1, 3, 2, 5} {
		line, err := json.Marshal(result{Correct: true, Attempted: 10, Metrics: map[string]metric{"latency_p50_ms": {Value: v, Unit: "ms"}}})
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, fmt.Sprintf("run%d.txt", i))
		if err := os.WriteFile(p, []byte("latency_p50_ms  1 ms\n{\"provenance\":{}}\n"+string(line)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	var out strings.Builder
	if err := summarize(paths, &out); err != nil {
		t.Fatal(err)
	}
	// Five runs of 1..5: median 3, quartiles 1.5 and 4.5, spread 1.
	if !strings.Contains(out.String(), "5 runs") || !regexp.MustCompile(`latency_p50_ms\s+5\s+3\s+1\.5\s+4\.5\s+1\.0000 ms`).MatchString(out.String()) {
		t.Errorf("summary:\n%s", out.String())
	}
	if err := summarize([]string{filepath.Join(dir, "missing")}, &out); err == nil {
		t.Error("summarize of a missing file succeeded")
	}
}
