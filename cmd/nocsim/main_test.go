package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the CLI goldens in testdata/golden")

// TestMain doubles as the CLI: with runMainEnv set, the test binary is
// nocsim itself, so the tests drive real flag parsing and exit codes
// without a separate go build.
const runMainEnv = "NOCSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs nocsim with args and returns its stdout, stderr and exit
// code.
func runCLI(t *testing.T, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = t.TempDir()
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("nocsim %v: %v", args, err)
	}
	return out.Bytes(), errb.Bytes(), code
}

// TestCLIGolden pins nocsim's text output: five topologies × wormhole
// and store-and-forward, the WISHBONE build, QoS off, the Fig-2 bus,
// and built-in scenarios with and without flag overrides.
func TestCLIGolden(t *testing.T) {
	type tc struct {
		name string
		args []string
	}
	var cases []tc
	for _, topo := range []string{"crossbar", "mesh", "torus", "ring", "tree"} {
		for _, mode := range []string{"wormhole", "saf"} {
			cases = append(cases, tc{topo + "-" + mode, []string{"-topology", topo, "-mode", mode}})
		}
	}
	cases = append(cases,
		tc{"wb", []string{"-wb", "-topology", "mesh"}},
		tc{"qos-off", []string{"-qos=false", "-topology", "tree", "-seed", "3"}},
		tc{"bus", []string{"-system", "bus"}},
		tc{"scenario", []string{"-scenario", "cpu-dma-display"}},
		tc{"scenario-overrides", []string{"-scenario", "camera-isp-pipeline", "-topology", "ring", "-mode", "saf", "-seed", "5", "-wb"}},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, stderr, code := runCLI(t, append([]string{"-requests", "10"}, c.args...)...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			path := filepath.Join("testdata", "golden", c.name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, out, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run go test ./cmd/nocsim -run CLIGolden -update to create it)", err)
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("%s diverged from the golden; if the change is intended, rerun with -update and review the diff\n--- got ---\n%s", path, out)
			}
		})
	}
}

// TestSeedZeroFails: seed 0 is the scenario schema's "omitted", so
// -seed 0 cannot name a run — flag-only or under -scenario, it exits 1
// instead of running some other seed.
func TestSeedZeroFails(t *testing.T) {
	for _, args := range [][]string{
		{"-seed", "0"},
		{"-scenario", "cpu-dma-display", "-seed", "0"},
	} {
		out, stderr, code := runCLI(t, append(args, "-requests", "2")...)
		if code != 1 || len(out) != 0 {
			t.Fatalf("%v: exit %d with %d bytes of output, want exit 1 and none", args, code, len(out))
		}
		if !strings.Contains(string(stderr), "-seed 0 is not a seed a scenario can carry") {
			t.Fatalf("%v: stderr %q", args, stderr)
		}
	}
}
