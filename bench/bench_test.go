package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// smokeRun makes one smoke-scale run of the named workload.
func smokeRun(t *testing.T, name string, seed int64, trace bool, dir string) *report {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := measureRun(w.scaled(defaultSeconds, true), seed, true, trace, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || !rep.Correct {
		t.Fatalf("%s: %d of %d operations failed: %v", name, rep.Failed, rep.Attempted, rep.Failures)
	}
	return rep
}

// checkMetrics requires the report to carry exactly the declared metrics,
// each with its declared unit.
func checkMetrics(t *testing.T, rep *report, decls []metricDecl) {
	t.Helper()
	if len(rep.Metrics) != len(decls) {
		t.Errorf("%s: %d metrics emitted, %d declared", rep.Workload, len(rep.Metrics), len(decls))
	}
	for _, d := range decls {
		m, ok := rep.Metrics[d.name]
		if !ok {
			t.Errorf("%s: declared metric %s not emitted", rep.Workload, d.name)
		} else if m.Unit != d.unit {
			t.Errorf("%s: %s has unit %q, declared %q", rep.Workload, d.name, m.Unit, d.unit)
		}
	}
}

// TestSmokeWorkloads runs every workload at smoke scale: two untraced runs
// and a traced one at one seed must agree on the checksum, pass their regime
// guard and verification trial, and emit exactly the declared metrics.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			first := smokeRun(t, w.name, 1, false, dir)
			second := smokeRun(t, w.name, 1, false, dir)
			traced := smokeRun(t, w.name, 1, true, dir)
			if first.Checksum != second.Checksum || first.Checksum != traced.Checksum {
				t.Errorf("checksums differ at one seed: %s, %s, traced %s", first.Checksum, second.Checksum, traced.Checksum)
			}
			if other := smokeRun(t, w.name, 2, false, dir); other.Checksum == first.Checksum {
				t.Errorf("seeds 1 and 2 share checksum %s", first.Checksum)
			}
			checkMetrics(t, first, endToEnd)
			checkMetrics(t, traced, perLayer)
			for _, d := range endToEnd {
				if first.Metrics[d.name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", d.name)
				}
			}
			if traced.Metrics["trace.spans_count"].Value == 0 || traced.Metrics["trace.overhead_ratio"].Value == 0 {
				t.Errorf("traced run recorded no spans or no overhead: %v", traced.Metrics)
			}
			if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+"-1.json")); err != nil {
				t.Errorf("span file: %v", err)
			}
			if first.Claim != nil {
				t.Errorf("claim = %v, want null", *first.Claim)
			}
		})
	}
}

func TestSeedsGenerateDifferentData(t *testing.T) {
	for _, w := range workloads() {
		w = w.scaled(defaultSeconds, true)
		a, err := w.generate(trialSeed(1, 0))
		if err != nil {
			t.Fatal(err)
		}
		again, err := w.generate(trialSeed(1, 0))
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.generate(trialSeed(2, 0))
		if err != nil {
			t.Fatal(err)
		}
		sa, _ := a.window.Series(0)
		sb, _ := b.window.Series(0)
		sagain, _ := again.window.Series(0)
		if !reflect.DeepEqual(sa, sagain) || !reflect.DeepEqual(a.ticks, again.ticks) {
			t.Errorf("%s: one seed generated two different inputs", w.name)
		}
		if reflect.DeepEqual(sa, sb) || reflect.DeepEqual(a.ticks, b.ticks) {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", w.name)
		}
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestManifestMatchesDeclarations keeps BENCHMARK.json and the benchmark's
// own declarations equal, inside the limits the manifest's contract sets.
func TestManifestMatchesDeclarations(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the round counts are sized for %d", m.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", m.Paths)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	ws := workloads()
	if len(m.Workloads) != len(ws) || len(ws) < 2 || len(ws) > 8 {
		t.Fatalf("%d workloads in the manifest, %d declared", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		checkName(w.name)
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, declared %s: %s", i, m.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}

	compare := func(kind string, got []manifestMetric, want []metricDecl, limit int, bounded bool) {
		if len(got) != len(want) || len(want) < 1 || len(want) > limit {
			t.Fatalf("%s: %d metrics in the manifest, %d declared, limit %d", kind, len(got), len(want), limit)
		}
		for i, d := range want {
			checkName(d.name)
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: manifest %+v, declared %+v", kind, i, g, d)
			}
			if !unit.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
				t.Errorf("%s: bad unit %q or direction %q", d.name, d.unit, d.better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound %v in the manifest, %v declared, must be in (0, 0.25]", d.name, g.Bound, d.bound)
			case !bounded && (g.Bound != nil || d.bound != 0):
				t.Errorf("%s: per-layer metrics carry no bound", d.name)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, 16, true)
	compare("per_layer", m.PerLayer, perLayer, 128, false)
	if s := endToEnd[0]; s.name != "setup_s" || s.unit != "s" || s.better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better: %+v", s)
	}
	for _, d := range endToEnd[1:] {
		if d.bound > endToEnd[0].bound {
			t.Errorf("%s has a larger bound than setup_s", d.name)
		}
	}
}

// TestRefKernelImportsStandardLibraryOnly pins the yardstick's independence
// of the code it measures.
func TestRefKernelImportsStandardLibraryOnly(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "refkernel.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			t.Fatal(err)
		}
		if first := strings.SplitN(path, "/", 2)[0]; strings.Contains(first, ".") || first == "affinity" {
			t.Errorf("refkernel.go imports %s, which is not in the standard library", path)
		}
	}
}

func TestRefKernelChecksum(t *testing.T) {
	rd, err := newYardstick(2).measure()
	if err != nil {
		t.Fatal(err)
	}
	if rd.inCache <= 0 || rd.pastCache <= 0 {
		t.Errorf("measured %+v ms", rd)
	}
	before, after := reading{inCache: 1, pastCache: 8}, reading{inCache: 3, pastCache: 24}
	if got := norm(32e6, 1, before, after); got != 2*refNominalMS {
		t.Errorf("norm(32 ms between past-cache readings of 8 and 24 ms) = %v, want %v", got, 2*refNominalMS)
	}
	if got := norm(32e6, 1.0/3, before, after); math.Abs(got-8*refNominalMS) > 1e-9 {
		t.Errorf("norm(32 ms between readings whose mix at a third is 2 and 6 ms) = %v, want %v", got, 8*refNominalMS)
	}
}

// TestCommandLine drives the program the way the driver does.
func TestCommandLine(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "stream_steady", "--seed", "3", "--seconds", "15", "--trace", "0", "-smoke", "-out", dir}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[key]; !ok {
			t.Errorf("last line lacks %q", key)
		}
	}
	if len(last) != 4 {
		t.Errorf("last line has %d keys, want exactly 4", len(last))
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "stream_steady", "--trace", "2"},
		{"-agree", dir},
	} {
		if code := run(bad, &stdout, &stderr); code == 0 {
			t.Errorf("%v exited 0", bad)
		}
	}
}

// TestAgree compares report directories: a set agrees with itself, and stops
// agreeing when a checksum, a failure count or a metric moves.
func TestAgree(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	rep := smokeRun(t, "stream_churn", 1, false, a)
	for _, dir := range []string{a, b} {
		if _, err := rep.write(dir); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if ok, err := agreeDirs(a, b, &out); err != nil || !ok {
		t.Fatalf("identical sets disagree (%v):\n%s", err, out.String())
	}
	tamper := func(name string, change func(r *report)) {
		dir := t.TempDir()
		changed := *rep
		changed.Metrics = map[string]metricValue{}
		for k, v := range rep.Metrics {
			changed.Metrics[k] = v
		}
		change(&changed)
		if _, err := changed.write(dir); err != nil {
			t.Fatal(err)
		}
		out.Reset()
		if ok, err := agreeDirs(a, dir, &out); err != nil || ok {
			t.Errorf("%s: sets still agree (%v):\n%s", name, err, out.String())
		}
	}
	tamper("checksum", func(r *report) { r.Checksum = "0" })
	tamper("failed", func(r *report) { r.Failed = 1 })
	tamper("slower", func(r *report) {
		m := r.Metrics["round_ms"]
		m.Value *= 1.5
		r.Metrics["round_ms"] = m
	})
	tamper("worse answers", func(r *report) {
		m := r.Metrics["result_f1"]
		m.Value *= 0.5
		r.Metrics["result_f1"] = m
	})
	if _, err := agreeDirs(a, t.TempDir(), &out); err == nil {
		t.Error("an empty directory compared without error")
	}
}
