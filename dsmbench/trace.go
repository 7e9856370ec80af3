package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
)

// rtNames are the runtime/metrics counters read around the traced phase.
var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// tracer brackets the traced phase: a CPU profile plus runtime/metrics
// deltas.
type tracer struct {
	before  []metrics.Sample
	profile string
	file    *os.File
	err     error
}

// tmpDir is where the benchmark writes temporary files (profiles): under the
// build directory the wrapper script names, else under the working
// directory.
func tmpDir() string {
	dir := os.Getenv("DSMBENCH_TMP")
	if dir == "" {
		dir = filepath.Join(".bench_build", "tmp")
	}
	return dir
}

func readRT() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func rtValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// startTrace starts the CPU profile and snapshots the runtime counters.
func startTrace() *tracer {
	t := &tracer{}
	dir := tmpDir()
	if t.err = os.MkdirAll(dir, 0o755); t.err == nil {
		t.file, t.err = os.CreateTemp(dir, "cpu-*.pprof")
	}
	if t.err == nil {
		t.profile = t.file.Name()
		t.err = pprof.StartCPUProfile(t.file)
	}
	runtime.GC()
	t.before = readRT()
	return t
}

// stop ends the traced phase over ops ops and reports the runtime deltas
// and the CPU profile split by package.
func (t *tracer) stop(r *report, ops int64) {
	after := readRT()
	if t.err == nil {
		pprof.StopCPUProfile()
		t.err = t.file.Close()
	}
	delta := func(i int) float64 { return rtValue(after[i]) - rtValue(t.before[i]) }
	n := float64(ops)
	r.set("runtime.allocs_per_op", delta(0)/n)
	r.set("runtime.bytes_per_op", delta(1)/n)
	r.set("runtime.gc_cycles_per_kop", delta(2)/n*1000)
	r.set("runtime.gc_cpu_frac", delta(3)/delta(4))
	if t.err == nil {
		t.err = profileSplit(r, t.profile)
	}
	if t.profile != "" {
		os.Remove(t.profile)
	}
	if t.err != nil {
		r.note("cpu profile split unavailable: %v", t.err)
	}
}

// shareLayers are the module layers the CPU profile is split into; every
// other repro package, the benchmark and the standard library fall into
// "other".
var shareLayers = []string{"sim", "network", "topology", "routing", "grouping", "coherence", "cache", "directory"}

// profileSplit runs the toolchain's offline pprof over the profile and
// reports each layer's share of flat CPU time.
func profileSplit(r *report, profile string) error {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profile)
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	flat, err := parseTop(out.String())
	if err != nil {
		return err
	}
	layers := append(append([]string(nil), shareLayers...), "runtime", "other")
	var total float64
	for _, l := range layers {
		total += flat[l]
	}
	if total == 0 {
		return fmt.Errorf("cpu profile has no samples")
	}
	for _, l := range layers {
		r.set("cpu_share."+l, flat[l]/total)
	}
	return nil
}

// parseTop sums pprof -top's flat column (in ms) by layer.
func parseTop(text string) (map[string]float64, error) {
	flat := map[string]float64{"runtime": 0, "other": 0}
	for _, l := range shareLayers {
		flat[l] = 0
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	rows := 0
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[0], "ms") || !strings.HasSuffix(f[1], "%") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		flat[layerOf(strings.Join(f[5:], " "))] += v
		rows++
	}
	if rows == 0 {
		return nil, fmt.Errorf("pprof -top printed no rows")
	}
	return flat, nil
}

// layerOf maps a profiled function name to its layer.
func layerOf(fn string) string {
	const pre = "repro/internal/"
	if strings.HasPrefix(fn, pre) {
		pkg := fn[len(pre):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range shareLayers {
			if pkg == l {
				return l
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") || strings.HasPrefix(fn, "gcWriteBarrier") ||
		strings.HasPrefix(fn, "aeshash") || strings.HasPrefix(fn, "memeqbody") {
		return "runtime"
	}
	return "other"
}
