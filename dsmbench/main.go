// Command dsmbench is the repository benchmark. It drives the simulator's
// and the serving daemon's public Go APIs on three seeded workloads, checks
// every output, and prints one JSON result line:
//
//	dsmbench --workload inval-k16 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no instrumentation beyond one clock read per timed op. With --trace 1 a
// separate run carries the per-layer metrics: exact simulator counts,
// replays of single layers on the workload's own inputs, runtime/metrics
// deltas and a CPU profile split by package. See README.md for the
// workloads, the metric catalogue and the noise measurements behind the
// run lengths.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// defaultSeed is the seed whose exact per-op counts are pinned in
// expected.json.
const defaultSeed = 1

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow start does not move it.
const setupReps = 5

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
}

// workload runs one named workload and fills the report.
type workload struct {
	name string
	run  func(cfg config, r *report)
}

var workloads = []workload{
	{"inval-k16", runInval},
	{"apps-k4", runApps},
	{"serve-zipf", runServe},
}

// workloadNamed returns the named workload, or nil.
func workloadNamed(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's counts, failures and metric values.
type report struct {
	attempted, failed int64
	// problems holds the first failure messages, for standard error.
	problems []string
	values   map[string]float64
	// notes are human-readable lines printed before the result.
	notes []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

// fail records n failed ops with a reason.
func (r *report) fail(n int64, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// set records a metric value; the name must be in the catalogue.
func (r *report) set(name string, v float64) {
	if _, ok := catalogue[name]; !ok {
		panic("dsmbench: metric " + name + " is not in the catalogue")
	}
	r.values[name] = v
}

// note adds a human-readable line to the run's output.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result assembles the JSON result: every metric of the requested tier
// (end-to-end without tracing, per-layer with it). A per-layer metric a
// workload does not exercise reads 0 and is listed as n/a.
func (r *report) result(trace bool) (result, []string) {
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	var na []string
	for _, d := range tier(trace) {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if !trace {
				res.Correct = false
				r.problems = append(r.problems, "end-to-end metric "+d.name+" was not measured")
			}
			na = append(na, d.name)
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, na
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: inval-k16, apps-k4 or serve-zipf")
		seed    = flag.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 10, "length of the measured phase, in seconds")
		trace   = flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	)
	flag.Parse()
	w := workloadNamed(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "dsmbench: need --workload (inval-k16|apps-k4|serve-zipf), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	r := newReport()
	start := time.Now()
	w.run(cfg, r)
	if !cfg.trace {
		r.set("max_rss_mb", maxRSSMB())
	}
	res, na := r.result(cfg.trace)

	fmt.Printf("dsmbench %s seed=%d seconds=%g trace=%v go=%s cpus=%d wall=%.1fs\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, runtime.Version(), runtime.NumCPU(), time.Since(start).Seconds())
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	printTable(res, na)
	fail := 0.0
	if res.Attempted > 0 {
		fail = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("  fail_frac %.6g (%d failed of %d attempted ops)\n", fail, res.Failed, res.Attempted)
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "dsmbench: FAIL: "+p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printTable prints every metric with its unit and how it was taken.
func printTable(res result, na []string) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	missing := map[string]bool{}
	for _, n := range na {
		missing[n] = true
	}
	for _, n := range names {
		m := res.Metrics[n]
		how := catalogue[n].how
		if missing[n] {
			how = "n/a: not exercised by this workload"
		}
		fmt.Printf("  %-30s %14.6g %-14s %s\n", n, m.Value, m.Unit, how)
	}
}
