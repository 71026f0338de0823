// Command bench is the repository's benchmark: one streaming lifecycle
// (generate, cold build, then rounds of append, advance and a fixed query
// pass) on four workloads, reported as seven end-to-end metrics, or in a
// traced run as per-layer metrics.  bench/README.md describes it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: stream_steady, stream_churn, serve_cached or sharded_p2")
	seed := fs.Int64("seed", 1, "input seed; runs are compared at equal seeds")
	seconds := fs.Int("seconds", defaultSeconds, "scales the number of timed rounds per trial (the counts are sized for the default)")
	trace := fs.Int("trace", 0, "1 records spans and probes and reports the per-layer metrics instead of the end-to-end ones")
	smoke := fs.Bool("smoke", false, "tiny scale (n=48, m=96, 1 trial x 3 rounds) for tests")
	out := fs.String("out", filepath.Join("bench", ".out"), "directory the run's report and span file are written to")
	agree := fs.Bool("agree", false, "compare two report directories given as arguments instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *agree {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -agree DIR_A DIR_B")
			return 2
		}
		ok, err := agreeDirs(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	w, err := findWorkload(*workload)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: need -workload, -seconds >= 1 and -trace 0 or 1:", err)
		return 2
	}
	rep, err := measureRun(w.scaled(*seconds, *smoke), *seed, *smoke, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if _, err := rep.write(*out); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !rep.Correct {
		fmt.Fprintln(stderr, "bench: the run counted failed operations")
		return 1
	}
	return 0
}

// measureRun makes one run of the scaled workload: the timed trials, the
// verification trial, and in a traced run the untraced repeat of trial 0 that
// the tracing overhead is read from.
func measureRun(w workloadSpec, seed int64, smoke, trace bool, outDir string) (*report, error) {
	r := newRunner(w, seed, smoke, trace)
	if err := r.run(); err != nil {
		return nil, err
	}
	wall := time.Since(r.wallStart)
	if err := r.verify(); err != nil {
		return nil, fmt.Errorf("%s seed %d verification trial: %w", w.name, seed, err)
	}
	var untracedRound float64
	if trace {
		one := w
		one.trials = 1
		twin := newRunner(one, seed, smoke, false)
		if err := twin.run(); err != nil {
			return nil, fmt.Errorf("untraced repeat: %w", err)
		}
		r.attempted++
		if twin.sum.Sum64() != r.firstTrialSum {
			r.fail(0, -1, "untraced repeat of trial 0 has checksum %016x, traced %016x", twin.sum.Sum64(), r.firstTrialSum)
		}
		untracedRound = median(twin.trials[0].round)
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", w.name, seed))
		if err := r.tr.write(path); err != nil {
			return nil, err
		}
	}
	return r.buildReport(wall, r.passCalls, untracedRound), nil
}
