package affinity_test

// Golden parity suite: pins that every measure returns byte-identical results
// through the naive, affine and SCAPE methods, for MET/MER interval and MEC
// queries, issued both singly and in batches.  The fixture in
// testdata/golden_measures.json was captured before the declarative measure
// algebra refactor (internal/measure); any refactor of the measure plumbing
// must reproduce these float bit patterns exactly.
//
// Regenerate (only when deliberately changing numeric behaviour) with:
//
//	go test -run TestGoldenMeasureParity -update-golden .

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"affinity"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_measures.json.gz from the current implementation")

// The fixture is stored gzip-compressed (it is a 41k-line JSON document);
// readGolden/writeGolden decompress and compress transparently, keyed on the
// .gz suffix, so the parity suite itself never changes shape.
const goldenPath = "testdata/golden_measures.json.gz"

func readGolden(path string) ([]byte, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return buf, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(buf))
	if err != nil {
		return nil, fmt.Errorf("decompress %s: %w", path, err)
	}
	defer zr.Close()
	return io.ReadAll(zr)
}

func writeGolden(path string, content []byte) error {
	if !strings.HasSuffix(path, ".gz") {
		return os.WriteFile(path, content, 0o644)
	}
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	if _, err := zw.Write(content); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return os.WriteFile(path, out.Bytes(), 0o644)
}

// goldenMeasures lists the measures that existed before the measure-algebra
// refactor; the fixture deliberately does not grow when new measures are
// registered (new measures get their own agreement tests instead).
func goldenMeasures() []affinity.Measure {
	return []affinity.Measure{
		affinity.Mean, affinity.Median, affinity.Mode,
		affinity.Covariance, affinity.DotProduct,
		affinity.Correlation, affinity.Cosine, affinity.Jaccard,
		affinity.Dice, affinity.HarmonicMean,
	}
}

// goldenCase is one recorded query result.  Floats are stored as Go hex
// literals ('x' format), which round-trip float64 bit patterns exactly.
type goldenCase struct {
	Key    string   `json:"key"`
	Series []int    `json:"series,omitempty"`
	Pairs  []string `json:"pairs,omitempty"`
	Values []string `json:"values,omitempty"`
	Err    string   `json:"err,omitempty"`
}

func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func goldenEngine(t testing.TB) (*affinity.Engine, *affinity.Dataset) {
	t.Helper()
	data, err := affinity.GenerateSensorData(affinity.SensorDataConfig{
		NumSeries: 36, NumSamples: 96, NumGroups: 4, Seed: 20260728,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	eng, err := affinity.New(data, affinity.Options{Clusters: 4, Seed: 7, Parallelism: 2})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return eng, data
}

// quantiles returns deterministic per-measure query bounds derived from the
// naive value distribution, so every recorded query has a non-trivial result
// at every measure's natural scale.
func quantiles(t testing.TB, eng *affinity.Engine, m affinity.Measure) (q25, q50, q75 float64) {
	t.Helper()
	var vals []float64
	if !m.Pairwise() {
		vs, err := eng.ComputeLocation(m, eng.Data().IDs(), affinity.Naive)
		if err != nil {
			t.Fatalf("%v location: %v", m, err)
		}
		vals = vs
	} else {
		matrix, err := eng.ComputePairwise(m, eng.Data().IDs(), affinity.Naive)
		if err != nil {
			t.Fatalf("%v pairwise: %v", m, err)
		}
		for i := range matrix {
			for j := i + 1; j < len(matrix[i]); j++ {
				if !math.IsNaN(matrix[i][j]) {
					vals = append(vals, matrix[i][j])
				}
			}
		}
	}
	sort.Float64s(vals)
	if len(vals) == 0 {
		t.Fatalf("%v: no finite naive values", m)
	}
	return vals[len(vals)/4], vals[len(vals)/2], vals[3*len(vals)/4]
}

func resultCase(key string, res affinity.Result, err error) goldenCase {
	c := goldenCase{Key: key}
	if err != nil {
		c.Err = err.Error()
		return c
	}
	for _, id := range res.Series {
		c.Series = append(c.Series, int(id))
	}
	for _, p := range res.Pairs {
		c.Pairs = append(c.Pairs, fmt.Sprintf("%d-%d", p.U, p.V))
	}
	return c
}

func floatsCase(key string, vals []float64, err error) goldenCase {
	c := goldenCase{Key: key}
	if err != nil {
		c.Err = err.Error()
		return c
	}
	for _, v := range vals {
		c.Values = append(c.Values, hexFloat(v))
	}
	return c
}

// collectGolden runs the full query grid and returns every recorded case.
func collectGolden(t testing.TB) []goldenCase {
	eng, data := goldenEngine(t)
	ids := data.IDs()
	sub := ids[:6]
	methods := []struct {
		name string
		m    affinity.Method
	}{{"naive", affinity.Naive}, {"affine", affinity.Affine}, {"index", affinity.Index}}

	var cases []goldenCase
	for _, m := range goldenMeasures() {
		q25, q50, q75 := quantiles(t, eng, m)
		cases = append(cases, floatsCase(fmt.Sprintf("%v/quantiles", m), []float64{q25, q50, q75}, nil))

		above, below, mer := affinity.GreaterThan(q50), affinity.LessThan(q50), affinity.Between(q25, q75)
		for _, method := range methods {
			// MET above/below and MER at the measure's own scale.
			resA, errA := eng.Interval(m, above, method.m)
			cases = append(cases, resultCase(fmt.Sprintf("%v/%s/met-above", m, method.name), resA, errA))
			resB, errB := eng.Interval(m, below, method.m)
			cases = append(cases, resultCase(fmt.Sprintf("%v/%s/met-below", m, method.name), resB, errB))
			resR, errR := eng.Interval(m, mer, method.m)
			cases = append(cases, resultCase(fmt.Sprintf("%v/%s/mer", m, method.name), resR, errR))
		}
		mets := []affinity.QuerySpec{affinity.IntervalSpec(m, above), affinity.IntervalSpec(m, below)}
		mers := []affinity.QuerySpec{affinity.IntervalSpec(m, mer)}

		// Batched MET/MER per sweep method plus the index where applicable.
		for _, method := range methods {
			bt, err := eng.Batch(mets, method.m)
			if err != nil {
				cases = append(cases, goldenCase{Key: fmt.Sprintf("%v/%s/met-batch", m, method.name), Err: err.Error()})
			} else {
				for i, res := range bt {
					cases = append(cases, resultCase(fmt.Sprintf("%v/%s/met-batch-%d", m, method.name, i), res, nil))
				}
			}
			br, err := eng.Batch(mers, method.m)
			if err != nil {
				cases = append(cases, goldenCase{Key: fmt.Sprintf("%v/%s/mer-batch", m, method.name), Err: err.Error()})
			} else {
				for i, res := range br {
					cases = append(cases, resultCase(fmt.Sprintf("%v/%s/mer-batch-%d", m, method.name, i), res, nil))
				}
			}
		}

		// MEC single + batch with the sweep methods.
		for _, method := range methods[:2] {
			if !m.Pairwise() {
				vals, err := eng.ComputeLocation(m, ids, method.m)
				cases = append(cases, floatsCase(fmt.Sprintf("%v/%s/mec", m, method.name), vals, err))
			} else {
				matrix, err := eng.ComputePairwise(m, sub, method.m)
				var flat []float64
				if err == nil {
					for _, row := range matrix {
						flat = append(flat, row...)
					}
				}
				cases = append(cases, floatsCase(fmt.Sprintf("%v/%s/mec", m, method.name), flat, err))
			}
			cq := []affinity.ComputeQuery{{Measure: m, IDs: sub}}
			bres, err := eng.ComputeBatch(cq, method.m)
			var flat []float64
			if err == nil {
				flat = append(flat, bres[0].Location...)
				for _, row := range bres[0].Pairwise {
					flat = append(flat, row...)
				}
			}
			cases = append(cases, floatsCase(fmt.Sprintf("%v/%s/mec-batch", m, method.name), flat, err))
		}
	}
	return cases
}

func TestGoldenMeasureParity(t *testing.T) {
	got := collectGolden(t)
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeGolden(goldenPath, append(buf, '\n')); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(got), goldenPath)
		return
	}
	buf, err := readGolden(goldenPath)
	if err != nil {
		t.Fatalf("read fixture (run with -update-golden to create): %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("case count changed: got %d, fixture has %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Key != w.Key {
			t.Fatalf("case %d: key %q, fixture %q", i, g.Key, w.Key)
		}
		if fmt.Sprintf("%v|%v|%v|%s", g.Series, g.Pairs, g.Values, g.Err) !=
			fmt.Sprintf("%v|%v|%v|%s", w.Series, w.Pairs, w.Values, w.Err) {
			t.Errorf("%s: result drifted from pre-refactor fixture\n got: %+v\nwant: %+v", g.Key, g, w)
		}
	}
}
