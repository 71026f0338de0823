package affinity_test

// The README's measure table is generated from the measure registry, not
// maintained by hand: this test renders the table from affinity.Measures()
// and requires README.md to contain it verbatim.  Registering a new measure
// therefore fails CI until the README row exists — paste the rendering from
// the failure message.

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"affinity"
)

func renderMeasureTable() string {
	var b strings.Builder
	b.WriteString("| Measure | Class | Base | Indexable | TopK | Definition |\n")
	b.WriteString("|---------|-------|------|-----------|------|------------|\n")
	for _, mi := range affinity.Measures() {
		idx := "yes"
		if !mi.Indexable {
			idx = "no"
		}
		// The TopK column is derived from the same capability flags the
		// executor routes on: indexable pairwise measures run the best-first
		// SCAPE traversal, L-measures rank from the location column, and
		// non-indexable measures fall back to the heap-over-sweep path.
		topk := "heap sweep"
		switch {
		case mi.Class == "L":
			topk = "location column"
		case mi.Indexable:
			topk = "best-first"
		}
		base := "—"
		if mi.Base != mi.Measure {
			base = fmt.Sprintf("`%v`", mi.Base)
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s |\n", mi.Name, mi.Class, base, idx, topk, mi.Doc)
	}
	return b.String()
}

func TestReadmeMeasureTableMatchesRegistry(t *testing.T) {
	buf, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	table := renderMeasureTable()
	if !strings.Contains(string(buf), table) {
		t.Fatalf("README.md measure table is stale; replace it with the registry rendering:\n\n%s", table)
	}
}
