package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gonoc/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenIDs are the experiments whose -json tables are fully seeded.
// E15 reports wall-clock self-profiling by design, so it stays out.
var goldenIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14"}

// goldenTable is the JSON shape of a stats.Table.
type goldenTable struct {
	Title string     `json:"title"`
	Cols  []string   `json:"cols"`
	Rows  [][]string `json:"rows"`
}

// wallColumn reports whether a column holds wall-clock time, which no
// seed can pin.
func wallColumn(name string) bool {
	name = strings.ToLower(name)
	return strings.Contains(name, "wall") || strings.HasSuffix(name, " ms") || name == "ms"
}

// stripWall drops wall-clock columns from every table.
func stripWall(tables []goldenTable) {
	for i := range tables {
		t := &tables[i]
		var keep []int
		var cols []string
		for c, name := range t.Cols {
			if !wallColumn(name) {
				keep = append(keep, c)
				cols = append(cols, name)
			}
		}
		t.Cols = cols
		for r, row := range t.Rows {
			kept := make([]string, 0, len(keep))
			for _, c := range keep {
				kept = append(kept, row[c])
			}
			t.Rows[r] = kept
		}
	}
}

// TestSuiteGolden pins the deterministic nocbench tables (E1–E14 at the
// default seed and request count, wall columns stripped) byte for byte,
// so refactors of any layer underneath are checked against the
// published results. Regenerate only for an intended model change:
// `go test ./cmd/nocbench -run SuiteGolden -update`.
func TestSuiteGolden(t *testing.T) {
	want := map[string]bool{}
	for _, id := range goldenIDs {
		want[id] = true
	}
	doc := report{Seed: 1, Requests: 25, Experiments: map[string][]*stats.Table{}}
	for _, e := range suite(doc.Seed, doc.Requests) {
		if want[e.id] {
			doc.Experiments[e.id] = e.run()
			doc.Order = append(doc.Order, e.id)
		}
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var norm struct {
		Seed        int64                    `json:"seed"`
		Requests    int                      `json:"requests"`
		Experiments map[string][]goldenTable `json:"experiments"`
		Order       []string                 `json:"order"`
	}
	if err := json.Unmarshal(raw, &norm); err != nil {
		t.Fatal(err)
	}
	for _, tables := range norm.Experiments {
		stripWall(tables)
	}
	var got bytes.Buffer
	if err := stats.WriteJSON(&got, norm); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "e1_e14.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), wantBytes) {
		t.Fatalf("nocbench E1–E14 tables diverged from the seed-pinned golden; if the model change is intentional, rerun with -update and review the diff\n--- got ---\n%s", got.Bytes())
	}
}
