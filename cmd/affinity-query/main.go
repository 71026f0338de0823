// Command affinity-query runs statistical queries against a stored or CSV
// dataset using the Affinity engine.
//
// Examples:
//
//	# all pairs of stocks whose correlation exceeds 0.95, answered by SCAPE
//	affinity-query -store ./data -dataset stock -query met -measure correlation -threshold 0.95 -method scape
//
//	# the same with an explicit comparison operator (interval grammar)
//	affinity-query -csv prices.csv -query met -measure correlation -op ">=" -threshold 0.95
//
//	# any interval predicate directly
//	affinity-query -csv prices.csv -query interval -measure correlation -interval "[0.8, 0.95)"
//
//	# the ten most correlated pairs (and the ten nearest under a distance)
//	affinity-query -csv prices.csv -measure correlation -topk 10
//	affinity-query -csv prices.csv -measure euclidean -topk 10 -smallest
//
//	# the covariance matrix of three series, computed through affine relationships
//	affinity-query -csv prices.csv -query mec -measure covariance -series 0,3,7 -method wa
//
//	# all series whose median lies in [20, 25]
//	affinity-query -store ./data -dataset sensor -query mer -measure median -lo 20 -hi 25
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"affinity"
	"affinity/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "affinity-query:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("affinity-query", flag.ContinueOnError)
	var names []string
	for _, info := range affinity.Measures() {
		names = append(names, info.Name)
	}
	var (
		storeDir  = fs.String("store", "", "store directory holding the dataset")
		dsName    = fs.String("dataset", "", "dataset name inside the store")
		csvPath   = fs.String("csv", "", "CSV file to load instead of the store")
		queryKind = fs.String("query", "mec", "query type: mec, met, mer, interval or topk")
		measure   = fs.String("measure", "correlation", "statistical measure ("+strings.Join(names, ", ")+")")
		methodStr = fs.String("method", "wa", "execution method: wn (naive), wa (affine), scape (index) or auto (planner)")
		seriesArg = fs.String("series", "", "comma-separated series identifiers for MEC queries (empty = all)")
		threshold = fs.Float64("threshold", 0.9, "MET threshold")
		op        = fs.String("op", ">", "MET comparison operator, from the interval grammar: "+affinity.IntervalGrammar())
		below     = fs.Bool("below", false, "MET: shorthand for -op \"<\"")
		lo        = fs.Float64("lo", 0, "MER lower bound")
		hi        = fs.Float64("hi", 1, "MER upper bound")
		intervalS = fs.String("interval", "", "interval predicate in the grammar above (for -query interval)")
		topk      = fs.Int("topk", 0, "top-k: return the k most extreme entries (overrides -query)")
		smallest  = fs.Bool("smallest", false, "top-k: select the smallest values (nearest pairs for distances)")
		clusters  = fs.Int("k", 6, "number of affine clusters")
		seed      = fs.Int64("seed", 42, "clustering seed")
		limit     = fs.Int("limit", 25, "maximum result entries to print (0 = all)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	d, err := loadDataset(*storeDir, *dsName, *csvPath)
	if err != nil {
		return err
	}
	m, err := affinity.ParseMeasure(*measure)
	if err != nil {
		return err
	}
	method, err := parseMethod(*methodStr)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "dataset: %d series x %d samples; building engine (k=%d)...\n",
		d.NumSeries(), d.NumSamples(), *clusters)
	engine, err := affinity.New(d, affinity.Options{Clusters: *clusters, Seed: *seed})
	if err != nil {
		return err
	}
	info := engine.Info()
	fmt.Fprintf(out, "built: %d pivot pairs, %d affine relationships in %v\n",
		info.NumPivots, info.NumRelationships, info.TotalDuration)

	if *topk > 0 {
		res, err := engine.TopK(m, *topk, !*smallest, method)
		if err != nil {
			return err
		}
		dir := "largest"
		if *smallest {
			dir = "smallest"
		}
		fmt.Fprintf(out, "MEK %v top-%d %s via %v: %d results\n", m, *topk, dir, method, res.Size())
		printResult(out, d, res, *limit)
		return nil
	}

	switch *queryKind {
	case "mec":
		ids, err := parseSeries(*seriesArg, d)
		if err != nil {
			return err
		}
		return runMEC(out, engine, d, m, ids, method, *limit)
	case "met":
		opS := *op
		if *below {
			opS = "<"
		}
		iv, err := affinity.ParseInterval(fmt.Sprintf("%s %v", opS, *threshold))
		if err != nil {
			return err
		}
		res, err := engine.Interval(m, iv, method)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "MET %v %v via %v: %d results\n", m, iv, method, res.Size())
		printResult(out, d, res, *limit)
		return nil
	case "mer":
		res, err := engine.Interval(m, affinity.Between(*lo, *hi), method)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "MER %v in [%v, %v] via %v: %d results\n", m, *lo, *hi, method, res.Size())
		printResult(out, d, res, *limit)
		return nil
	case "interval":
		iv, err := affinity.ParseInterval(*intervalS)
		if err != nil {
			return err
		}
		res, err := engine.Interval(m, iv, method)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "INTERVAL %v %v via %v: %d results\n", m, iv, method, res.Size())
		printResult(out, d, res, *limit)
		return nil
	case "topk":
		return fmt.Errorf("use -topk K to select the result size")
	default:
		return fmt.Errorf("unknown query type %q (want mec, met, mer, interval or topk)", *queryKind)
	}
}

func loadDataset(storeDir, name, csvPath string) (*affinity.Dataset, error) {
	switch {
	case csvPath != "":
		f, err := os.Open(csvPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return affinity.ReadCSV(f)
	case storeDir != "" && name != "":
		st, err := store.Open(storeDir)
		if err != nil {
			return nil, err
		}
		return st.ReadDataset(name)
	default:
		return nil, fmt.Errorf("either -csv or both -store and -dataset must be given")
	}
}

func parseMethod(s string) (affinity.Method, error) {
	switch strings.ToLower(s) {
	case "wn", "naive":
		return affinity.Naive, nil
	case "wa", "affine":
		return affinity.Affine, nil
	case "scape", "index":
		return affinity.Index, nil
	case "auto":
		return affinity.Auto, nil
	default:
		return 0, fmt.Errorf("unknown method %q (want wn, wa, scape or auto)", s)
	}
}

func parseSeries(arg string, d *affinity.Dataset) ([]affinity.SeriesID, error) {
	if strings.TrimSpace(arg) == "" {
		return d.IDs(), nil
	}
	parts := strings.Split(arg, ",")
	ids := make([]affinity.SeriesID, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("invalid series identifier %q: %v", p, err)
		}
		ids = append(ids, affinity.SeriesID(v))
	}
	return ids, nil
}

func runMEC(out io.Writer, engine *affinity.Engine, d *affinity.Dataset,
	m affinity.Measure, ids []affinity.SeriesID, method affinity.Method, limit int) error {
	if !m.Pairwise() {
		values, err := engine.ComputeLocation(m, ids, method)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "MEC %v via %v over %d series:\n", m, method, len(ids))
		for i, id := range ids {
			if limit > 0 && i >= limit {
				fmt.Fprintf(out, "  ... (%d more)\n", len(ids)-limit)
				break
			}
			fmt.Fprintf(out, "  %-24s %v\n", d.Name(id), values[i])
		}
		return nil
	}
	matrix, err := engine.ComputePairwise(m, ids, method)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "MEC %v via %v over %d series (showing up to %d rows):\n", m, method, len(ids), limit)
	for i := range matrix {
		if limit > 0 && i >= limit {
			fmt.Fprintf(out, "  ... (%d more rows)\n", len(matrix)-limit)
			break
		}
		fmt.Fprintf(out, "  %-24s", d.Name(ids[i]))
		for j := range matrix[i] {
			if limit > 0 && j >= limit {
				fmt.Fprint(out, " ...")
				break
			}
			fmt.Fprintf(out, " %8.4f", matrix[i][j])
		}
		fmt.Fprintln(out)
	}
	return nil
}

func printResult(out io.Writer, d *affinity.Dataset, res affinity.Result, limit int) {
	// Top-k results carry the ranking value per entry; interval results don't.
	value := func(i int) string {
		if res.Values == nil {
			return ""
		}
		return fmt.Sprintf("  %v", res.Values[i])
	}
	shown := 0
	for i, id := range res.Series {
		if limit > 0 && shown >= limit {
			fmt.Fprintf(out, "  ... (%d more)\n", res.Size()-shown)
			return
		}
		fmt.Fprintf(out, "  %s%s\n", d.Name(id), value(i))
		shown++
	}
	for i, p := range res.Pairs {
		if limit > 0 && shown >= limit {
			fmt.Fprintf(out, "  ... (%d more)\n", res.Size()-shown)
			return
		}
		fmt.Fprintf(out, "  %s -- %s%s\n", d.Name(p.U), d.Name(p.V), value(i))
		shown++
	}
}
