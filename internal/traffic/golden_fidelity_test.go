package traffic

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gonoc/internal/transport"
)

// TestFidelityCycleGoldenInert proves the fidelity knob's off position:
// an explicit fidelity=cycle run must reproduce every committed topology
// golden byte for byte. The knob being present in NetConfig may not
// perturb a single observable number when it is not engaged.
func TestFidelityCycleGoldenInert(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			cfg := g.cfg
			cfg.Net.Fidelity = transport.FidelityCycle
			res := Run(cfg)
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", fmt.Sprintf("topology_%s.golden.json", g.name))
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s: fidelity=cycle diverged from the committed golden — the knob is not inert", g.name)
			}
		})
	}
}
