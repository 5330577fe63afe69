package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// summarize reads the output of several benchmark runs (any lines that
// are not a result line are skipped) and prints, per metric, the run
// count, the median, the quartiles and the spread: the distance between
// the quartiles as a share of the median, the figure a run-to-run
// comparison is judged by.
func summarize(paths []string, out io.Writer) error {
	vals := map[string][]float64{}
	units := map[string]string{}
	runs, failed := 0, int64(0)
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			var r result
			if json.Unmarshal(sc.Bytes(), &r) != nil || r.Metrics == nil {
				continue
			}
			runs++
			failed += r.Failed
			for name, m := range r.Metrics {
				vals[name] = append(vals[name], m.Value)
				units[name] = m.Unit
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	}
	if runs == 0 {
		return fmt.Errorf("no result lines in %v", paths)
	}
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%d runs, %d failed operations\n", runs, failed)
	fmt.Fprintf(out, "%-36s %4s %14s %14s %14s %8s\n", "metric", "n", "median", "q1", "q3", "spread")
	for _, name := range names {
		v := vals[name]
		med, q := median(v), quartiles(v)
		fmt.Fprintf(out, "%-36s %4d %14.6g %14.6g %14.6g %8.4f %s\n", name, len(v), med, q[0], q[2], (q[2]-q[0])/med, units[name])
	}
	return nil
}
