// Command nocbench runs the full reproduction suite — experiments E1–E15,
// described in the package docs of internal/experiments and summarized in
// the top-level README.md — and prints the paper-style tables.
//
// With -json the same tables are emitted as one machine-readable JSON
// document, so CI can record benchmark trajectories (BENCH_*.json) and
// diff them across commits.
//
// Usage:
//
//	nocbench [-seed N] [-requests N] [-only E1,E3,...] [-json]
//	         [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"gonoc/internal/experiments"
	"gonoc/internal/obs/prof"
	"gonoc/internal/stats"
)

func main() {
	seed := flag.Int64("seed", 1, "root random seed")
	requests := flag.Int("requests", 25, "write/read-back pairs per master for E2/E3")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	jsonOut := flag.Bool("json", false, "emit results as one JSON document instead of text tables")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the suite to this file (docs/PERFORMANCE.md)")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile at exit to this file")
	flag.Parse()
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	sel := func(id string) bool { return len(want) == 0 || want[id] }

	doc := report{Seed: *seed, Requests: *requests, Experiments: map[string][]*stats.Table{}}
	for _, e := range suite(*seed, *requests) {
		if !sel(e.id) {
			continue
		}
		tables := e.run()
		if *jsonOut {
			doc.Experiments[e.id] = tables
			doc.Order = append(doc.Order, e.id)
			continue
		}
		for _, t := range tables {
			fmt.Println(t.Render())
		}
	}
	if *jsonOut {
		if err := stats.WriteJSON(os.Stdout, doc); err != nil {
			log.Fatal(err)
		}
	}
}

// experiment is one suite entry: an id and the run producing its tables.
type experiment struct {
	id  string
	run func() []*stats.Table
}

// suite lists the experiments in suite order.
func suite(seed int64, requests int) []experiment {
	return []experiment{
		{"E1", func() []*stats.Table { return []*stats.Table{experiments.E1CompatibilityMatrix(seed)} }},
		{"E2", func() []*stats.Table { return experiments.E2Performance(seed, requests) }},
		{"E3", func() []*stats.Table { return []*stats.Table{experiments.E3SwitchingModes(seed, requests)} }},
		{"E4", func() []*stats.Table { return []*stats.Table{experiments.E4Ordering(seed)} }},
		{"E5", func() []*stats.Table { return []*stats.Table{experiments.E5GateScaling()} }},
		{"E6", func() []*stats.Table { return []*stats.Table{experiments.E6ExclusiveVsLock(seed).Table} }},
		{"E7", func() []*stats.Table { return []*stats.Table{experiments.E7QoS(seed).Table} }},
		{"E8", func() []*stats.Table { return experiments.E8Physical().Tables }},
		{"E9", func() []*stats.Table { return []*stats.Table{experiments.E9ServiceAblation(seed)} }},
		{"E10", func() []*stats.Table { return experiments.E10TrafficSweep(seed).Tables }},
		{"E11", func() []*stats.Table { return experiments.E11WishboneAdapter(seed).Tables }},
		{"E12", func() []*stats.Table { return experiments.E12TopologyCampaign(seed).Tables }},
		{"E13", func() []*stats.Table { return experiments.E13CongestionHeatmap(seed).Tables }},
		{"E14", func() []*stats.Table { return experiments.E14Scenarios(seed).Tables }},
		{"E15", func() []*stats.Table { return experiments.E15SelfProfile(seed).Tables }},
	}
}

// report is the -json document.
type report struct {
	Seed        int64                     `json:"seed"`
	Requests    int                       `json:"requests"`
	Experiments map[string][]*stats.Table `json:"experiments"`
	Order       []string                  `json:"order"`
}
