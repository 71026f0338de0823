package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
)

// agreeDirs compares two directories of untraced run reports at the seeds
// both hold.  It prints, per workload and end-to-end metric, both sides'
// medians and quartiles, how much worse B's median is than A's and the
// metric's bound, and reports whether the two sets agree: no end-to-end
// median worse by more than its bound, no failed operation, and equal
// checksums and regimes wherever both sides ran the same seed.
func agreeDirs(dirA, dirB string, out io.Writer) (bool, error) {
	a, err := loadReports(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadReports(dirB)
	if err != nil {
		return false, err
	}
	ok := true
	complain := func(format string, args ...any) {
		ok = false
		fmt.Fprintf(out, "DISAGREE: "+format+"\n", args...)
	}
	compared := 0
	for _, w := range workloads() {
		var sideA, sideB []*report
		for seed, runsA := range a[w.name] {
			runsB := b[w.name][seed]
			if len(runsB) == 0 {
				continue
			}
			sideA, sideB = append(sideA, runsA...), append(sideB, runsB...)
			for _, rb := range runsB {
				if rb.Checksum != runsA[0].Checksum {
					complain("%s seed %d: checksum %s vs %s", w.name, seed, runsA[0].Checksum, rb.Checksum)
				}
				if !reflect.DeepEqual(rb.Regime, runsA[0].Regime) {
					complain("%s seed %d: regimes differ: %v vs %v", w.name, seed, runsA[0].Regime, rb.Regime)
				}
			}
		}
		if len(sideA) == 0 {
			continue
		}
		compared++
		for _, rep := range append(append([]*report(nil), sideA...), sideB...) {
			if rep.Failed > 0 || !rep.Correct {
				complain("%s seed %d: %d failed operations", w.name, rep.Seed, rep.Failed)
			}
		}
		fmt.Fprintf(out, "%s (%d vs %d runs)\n", w.name, len(sideA), len(sideB))
		for _, d := range endToEnd {
			qa, qb := quartiles(sideA, d.name), quartiles(sideB, d.name)
			worse := ratio(qb[1]-qa[1], qa[1])
			if d.better == "higher" {
				worse = -worse
			}
			fmt.Fprintf(out, "  %-20s A %10.4f [%10.4f, %10.4f]  B %10.4f [%10.4f, %10.4f]  B worse by %+6.2f%%  bound %.0f%% %s\n",
				d.name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], 100*worse, 100*d.bound, d.unit)
			if worse > d.bound {
				complain("%s %s: B's median is %.2f%% worse than A's, bound %.0f%%", w.name, d.name, 100*worse, 100*d.bound)
			}
		}
	}
	if compared == 0 {
		return false, fmt.Errorf("%s and %s share no workload and seed", dirA, dirB)
	}
	return ok, nil
}

// loadReports reads the untraced reports of dir, by workload and seed.
func loadReports(dir string) (map[string]map[int64][]*report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "report-*-trace0-*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no untraced reports in %s", dir)
	}
	sort.Strings(paths)
	out := map[string]map[int64][]*report{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		rep := &report{}
		if err := json.Unmarshal(data, rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[rep.Workload] == nil {
			out[rep.Workload] = map[int64][]*report{}
		}
		out[rep.Workload][rep.Seed] = append(out[rep.Workload][rep.Seed], rep)
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile of a
// metric over the reports (by linear interpolation, as Python's inclusive
// statistics.quantiles does).
func quartiles(reps []*report, name string) [3]float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = r.Metrics[name].Value
	}
	sort.Float64s(xs)
	at := func(q float64) float64 {
		pos := q * float64(len(xs)-1)
		lo := int(pos)
		if lo+1 >= len(xs) {
			return xs[len(xs)-1]
		}
		return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}
