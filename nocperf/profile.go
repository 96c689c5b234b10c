package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// layers are the modules the per-package attribution reports, in
// print order. "obs" is mostly the traced run's own fabric collector;
// "other" takes the rest of the standard library and the benchmark
// itself.
var layers = []string{"sim", "transport", "core", "niu", "protocols", "ip", "mem",
	"soc", "traffic", "scenario", "server", "stats", "obs", "runtime", "other"}

// layerOf maps a source file, as the trimpath build records it, to its
// layer: gonoc@<version>/internal/<pkg>/... to <pkg> (every protocol
// engine to "protocols"), the Go runtime to "runtime".
func layerOf(file string) string {
	if mod, rest, ok := strings.Cut(file, "/internal/"); ok && (mod == "gonoc" || strings.HasPrefix(mod, "gonoc@")) {
		pkg, _, _ := strings.Cut(rest, "/")
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	if strings.HasPrefix(file, "runtime/") || strings.HasPrefix(file, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// profiler captures a CPU profile and the allocations made while it
// runs. Both are grouped per layer afterwards with `go tool pprof`.
type profiler struct {
	dir, prefix string
	cpu         *os.File
}

// profileRate samples one allocation per 16 KiB, dense enough to
// attribute the traced pass's allocations per layer. Set before the
// traced workload allocates anything it should see.
const profileRate = 16 << 10

func startProfile(dir, prefix string) (*profiler, error) {
	runtime.MemProfileRate = profileRate
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &profiler{dir: dir, prefix: prefix}
	if err := p.writeAllocs("allocs0"); err != nil {
		return nil, err
	}
	f, err := os.Create(p.path("cpu"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p.cpu = f
	return p, nil
}

func (p *profiler) path(kind string) string {
	return filepath.Join(p.dir, fmt.Sprintf("%s-%s.pb.gz", p.prefix, kind))
}

func (p *profiler) writeAllocs(kind string) error {
	runtime.GC() // the allocs profile reflects the last completed GC
	f, err := os.Create(p.path(kind))
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stop ends profiling and records <layer>.cpu_frac and
// <layer>.alloc_frac with their bases.
func (p *profiler) stop(r *report) error {
	pprof.StopCPUProfile()
	if err := p.cpu.Close(); err != nil {
		return err
	}
	if err := p.writeAllocs("allocs1"); err != nil {
		return err
	}
	cpu, cpuTotal, err := pprofByLayer("-sample_index=samples", p.path("cpu"))
	if err != nil {
		return err
	}
	alloc, allocTotal, err := pprofByLayer("-sample_index=alloc_space", "-base", p.path("allocs0"), p.path("allocs1"))
	if err != nil {
		return err
	}
	cpuNote := fmt.Sprintf("of %.0f CPU samples", cpuTotal)
	allocNote := fmt.Sprintf("of %.1f MB sampled allocations", allocTotal/(1<<20))
	for _, l := range layers {
		r.set(l+".cpu_frac", ratio(cpu[l], cpuTotal), "ratio", "host", cpuNote)
		r.set(l+".alloc_frac", ratio(alloc[l], allocTotal), "ratio", "host", allocNote)
	}
	r.set("profile.cpu_samples", cpuTotal, "count", "host", "base of every cpu_frac (10 ms per sample)")
	r.set("profile.alloc_mb", allocTotal/(1<<20), "MB", "host", "base of every alloc_frac")
	return nil
}

// pprofByLayer runs `go tool pprof -top` at file granularity and sums
// the flat column per layer. It returns the per-layer sums and their
// total.
func pprofByLayer(args ...string) (map[string]float64, float64, error) {
	argv := append([]string{"tool", "pprof", "-top", "-files", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-unit=minimum"}, args...)
	cmd := exec.Command("go", argv...)
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	by := map[string]float64{}
	total := 0.0
	sc := bufio.NewScanner(&out)
	header := true
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if header {
			// The table starts after the "flat flat% sum% cum cum%" header.
			header = len(fields) == 0 || fields[0] != "flat"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		v, err := parseQuantity(fields[0])
		if err != nil {
			return nil, 0, fmt.Errorf("go tool pprof: %q: %w", sc.Text(), err)
		}
		by[layerOf(fields[5])] += v
		total += v
	}
	return by, total, sc.Err()
}

// parseQuantity reads pprof's flat column: a count, or bytes with a
// B/kB/MB/GB suffix.
func parseQuantity(s string) (float64, error) {
	mult := 1.0
	for _, u := range []struct {
		suffix string
		mult   float64
	}{{"GB", 1 << 30}, {"MB", 1 << 20}, {"kB", 1 << 10}, {"B", 1}} {
		if t, ok := strings.CutSuffix(s, u.suffix); ok {
			s, mult = t, u.mult
			break
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	return v * mult, err
}
