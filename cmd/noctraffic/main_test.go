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
// noctraffic itself, so the tests drive real flag parsing and exit
// codes without a separate go build.
const runMainEnv = "NOCTRAFFIC_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs noctraffic with args in dir and returns its stdout,
// stderr and exit code.
func runCLI(t *testing.T, dir string, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("noctraffic %v: %v", args, err)
	}
	return out.Bytes(), errb.Bytes(), code
}

// checkGolden compares got against testdata/golden/name, or rewrites
// it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./cmd/noctraffic -run CLIGolden -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s diverged from the golden; if the change is intended, rerun with -update and review the diff\n--- got ---\n%s", path, got)
	}
}

// goldenCases are the pinned invocations: every mode of the flag path,
// and each built-in scenario with one override. Sizes stay small so the
// whole table runs in about a second.
var goldenCases = []struct {
	name string
	args []string
}{
	{"single-saf-qos-mesh", []string{"-topology", "mesh", "-mode", "saf", "-qos", "-rate", "0.08", "-measure", "600"}},
	{"single-hotspot-torus", []string{"-topology", "torus", "-pattern", "hotspot", "-hotnode", "3", "-hotfrac", "0.7", "-measure", "600"}},
	{"single-closed", []string{"-closed", "-window", "2", "-topology", "ring", "-nodes", "8", "-measure", "600"}},
	{"single-readfrac0-warmup0", []string{"-readfrac", "0", "-warmup", "0", "-pattern", "bursty", "-burstlen", "4", "-urgentfrac", "0.25", "-payload", "16", "-measure", "600"}},
	{"sweep-default-rates", []string{"-sweep", "-nodes", "8", "-measure", "300", "-drain", "4000"}},
	{"sweep-rates", []string{"-sweep", "-rates", "0.02,0.1", "-topology", "tree", "-measure", "600"}},
	{"campaign-default-axes", []string{"-campaign", "-nodes", "8", "-warmup", "100", "-measure", "300", "-drain", "3000", "-workers", "2"}},
	{"campaign-axes", []string{"-campaign", "-topologies", "ring,mesh", "-patterns", "uniform,transpose", "-rates", "0.02,0.08", "-workers", "2", "-measure", "600"}},
	{"trans-default", []string{"-trans", "-measure", "600"}},
	{"trans-wb-hotspot-mem", []string{"-trans", "-wb", "-hotspot-mem", "-measure", "600"}},
	{"trans-mesh-readfrac0", []string{"-trans", "-topology", "mesh", "-readfrac", "0", "-measure", "600"}},
	{"scenario-cpu-dma-display-topology", []string{"-scenario", "cpu-dma-display", "-topology", "torus"}},
	{"scenario-camera-isp-pipeline-mode", []string{"-scenario", "camera-isp-pipeline", "-mode", "saf"}},
	{"scenario-hotspot-dram-rates", []string{"-scenario", "hotspot-dram", "-rates", "0.03,0.09"}},
	{"scenario-mixed-protocol-stress-readfrac", []string{"-scenario", "mixed-protocol-stress", "-readfrac", "0"}},
	{"scenario-ring-dateline-torture-pattern", []string{"-scenario", "ring-dateline-torture", "-pattern", "transpose"}},
	{"scenario-qos-inversion-qos", []string{"-scenario", "qos-inversion", "-qos=false"}},
}

// TestCLIGolden pins noctraffic's -wall=false -json output and its
// -save-scenario file for each golden case, and checks the round-trip
// guarantee: re-running the saved file prints the same bytes.
func TestCLIGolden(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			saved := c.name + ".scenario.json"
			args := append([]string{"-wall=false", "-json", "-save-scenario", saved}, c.args...)
			out, stderr, code := runCLI(t, dir, args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			doc, err := os.ReadFile(filepath.Join(dir, saved))
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.name+".json", out)
			checkGolden(t, saved, doc)

			again, stderr, code := runCLI(t, dir, "-scenario", saved, "-wall=false", "-json")
			if code != 0 {
				t.Fatalf("re-run of the saved scenario: exit %d: %s", code, stderr)
			}
			if !bytes.Equal(out, again) {
				t.Fatalf("-scenario %s printed different bytes than the invocation that saved it", saved)
			}
		})
	}
}

// TestInapplicableFlagsFail: a flag that does not apply to the resolved
// scenario exits 1 with the override error naming it, whether the
// scenario came from flags alone or from -scenario. Packet-only flags
// meet soc workloads, campaign axes meet non-campaign runs, soc-only
// flags meet packet workloads.
func TestInapplicableFlagsFail(t *testing.T) {
	const (
		onSoC      = "soc"    // flag-only: -trans; scenario: cpu-dma-display
		onPacket   = "packet" // flag-only: a single run; scenario: ring-dateline-torture
		packetOnly = "applies to packet scenarios"
		socOnly    = "applies to soc scenarios"
		needsCamp  = "needs a campaign scenario"
	)
	cases := []struct {
		on   string
		args []string
		want string
	}{
		{onSoC, []string{"-pattern", "hotspot"}, "-pattern " + packetOnly},
		{onSoC, []string{"-nodes", "64"}, "-nodes " + packetOnly},
		{onSoC, []string{"-hotfrac", "0.7"}, "-hotfrac " + packetOnly},
		{onSoC, []string{"-hotnode", "3"}, "-hotnode " + packetOnly},
		{onSoC, []string{"-burstlen", "4"}, "-burstlen " + packetOnly},
		{onSoC, []string{"-urgentfrac", "0.1"}, "-urgentfrac " + packetOnly},
		{onSoC, []string{"-closed"}, "-closed " + packetOnly},
		{onSoC, []string{"-sweep"}, "-sweep " + packetOnly},
		{onSoC, []string{"-campaign"}, "-campaign " + packetOnly},
		{onSoC, []string{"-rates", "0.1"}, "-rates " + packetOnly},
		{onSoC, []string{"-topologies", "ring"}, "-topologies " + packetOnly},
		{onSoC, []string{"-patterns", "uniform"}, "-patterns " + packetOnly},
		{onSoC, []string{"-workers", "2"}, "-workers " + packetOnly},
		{onPacket, []string{"-topologies", "ring,mesh"}, "-topologies " + needsCamp},
		{onPacket, []string{"-patterns", "uniform"}, "-patterns " + needsCamp},
		{onPacket, []string{"-workers", "2"}, "-workers " + needsCamp},
		{onPacket, []string{"-rates", "0.02,0.1"}, "-rates needs a sweep or campaign scenario"},
		{onPacket, []string{"-wb"}, "-wb " + socOnly},
		{onPacket, []string{"-hotspot-mem"}, "-hotspot-mem " + socOnly},
		{onPacket, []string{"-sweep", "-campaign"}, "-sweep and -campaign are mutually exclusive"},
		{onPacket, []string{"-seed", "0"}, "-seed 0 is not a seed a scenario can carry"},
		{onSoC, []string{"-seed", "0"}, "-seed 0 is not a seed a scenario can carry"},
	}
	for _, c := range cases {
		for _, viaScenario := range []bool{false, true} {
			var base []string
			switch {
			case c.on == onSoC && viaScenario:
				base = []string{"-scenario", "cpu-dma-display"}
			case c.on == onSoC:
				base = []string{"-trans"}
			case viaScenario:
				base = []string{"-scenario", "ring-dateline-torture"}
			}
			args := append(append(base, c.args...), "-measure", "100", "-json")
			t.Run(strings.Join(args, " "), func(t *testing.T) {
				out, stderr, code := runCLI(t, t.TempDir(), args...)
				if code != 1 || len(out) != 0 {
					t.Fatalf("exit %d with %d bytes of output, want exit 1 and none; stderr: %s", code, len(out), stderr)
				}
				if !strings.Contains(string(stderr), c.want) {
					t.Fatalf("stderr %q does not name the flag (want %q)", stderr, c.want)
				}
			})
		}
	}
	// -trans on a packet scenario has no flag-only form: -trans picks
	// the soc workload.
	_, stderr, code := runCLI(t, t.TempDir(), "-scenario", "ring-dateline-torture", "-trans")
	if code != 1 || !strings.Contains(string(stderr), "-trans needs a soc scenario") {
		t.Fatalf("-trans on a packet scenario: exit %d, stderr %q", code, stderr)
	}
}

// TestTransFlagsReachTheFabric: on a -trans run, -mode and -qos are
// fabric fields like on any other run — they reach the saved scenario,
// and store-and-forward switching changes the result.
func TestTransFlagsReachTheFabric(t *testing.T) {
	dir := t.TempDir()
	run := func(save string, extra ...string) []byte {
		args := append([]string{"-trans", "-measure", "600", "-wall=false", "-json", "-save-scenario", save}, extra...)
		out, stderr, code := runCLI(t, dir, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr)
		}
		return out
	}
	plain := run("plain.json")
	saf := run("saf.json", "-mode", "saf")
	run("qos.json", "-qos")
	if bytes.Equal(plain, saf) {
		t.Fatal("-trans -mode saf printed the same bytes as -trans")
	}
	for file, want := range map[string]string{"saf.json": `"mode": "saf"`, "qos.json": `"qos": true`} {
		doc, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(doc), want) {
			t.Fatalf("%s lacks %s:\n%s", file, want, doc)
		}
	}
}
