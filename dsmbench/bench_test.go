package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/service"
	"repro/internal/sweep"
)

// benchmarkJSON mirrors the keys of ../BENCHMARK.json the benchmark prints.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMetricsDeclared checks that every metric a run can print is declared
// in BENCHMARK.json with the same unit, in both tiers, and that every
// declared workload exists.
func TestMetricsDeclared(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range b.EndToEnd {
		declared[false][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		declared[true][m.Name] = m.Unit
	}
	for _, layer := range []bool{false, true} {
		res, _ := newReport().result(layer)
		if len(res.Metrics) != len(declared[layer]) {
			t.Errorf("trace=%v prints %d metrics, BENCHMARK.json declares %d", layer, len(res.Metrics), len(declared[layer]))
		}
		for name, m := range res.Metrics {
			unit, ok := declared[layer][name]
			if !ok {
				t.Errorf("trace=%v prints %s, which BENCHMARK.json does not declare in that tier", layer, name)
			} else if unit != m.Unit {
				t.Errorf("%s: printed unit %q, declared %q", name, m.Unit, unit)
			}
		}
	}
	for _, w := range b.Workloads {
		if workloadNamed(w.Name) == nil {
			t.Errorf("BENCHMARK.json declares workload %q, which the benchmark does not run", w.Name)
		}
	}
}

// TestPlantedFingerprintFails plants a wrong fingerprint for the hottest
// serve-zipf point: every serving of it must count as a failed op. The
// daemon's store starts holding every universe result, so each request is
// a cache hit and the run is quick.
func TestPlantedFingerprintFails(t *testing.T) {
	r := newReport()
	b, err := newServe(1, r)
	if err != nil {
		t.Fatal(err)
	}
	store := service.NewMemoryStore(0)
	for i, raw := range b.want {
		var m sweep.Measures
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		if err := store.Put(b.u.Fingerprints[i], m); err != nil {
			t.Fatal(err)
		}
	}
	b.u.Fingerprints[0] = "0123456789abcdef0123456789abcdef"
	if err := b.startDaemon(store); err != nil {
		t.Fatal(err)
	}
	defer b.stop()
	b.phase(1, 300*time.Millisecond)
	res, _ := r.result(false)
	if res.Failed == 0 || res.Correct {
		t.Fatalf("planted fingerprint gave failed=%d of %d, correct=%v", res.Failed, res.Attempted, res.Correct)
	}
}

// TestPlantedServedMeasuresFail plants a wrong reference result: the
// served bytes no longer match it, so the op fails.
func TestPlantedServedMeasuresFail(t *testing.T) {
	r := newReport()
	b := &serveBench{r: r, want: [][]byte{[]byte(`{}`)}, u: &load.Universe{Fingerprints: []string{"ab"}}}
	if err := b.check(0, "ab", sweep.Measures{}); err == nil {
		t.Fatal("measures differing from the reference bytes passed the check")
	}
}

// TestPlantedCountFails plants a wrong reference count for inval-k16: the
// pass that does not reproduce it must count its ops as failed, and an
// unplanted pass must not.
func TestPlantedCountFails(t *testing.T) {
	r := newReport()
	b, err := newInval(1, r)
	if err != nil {
		t.Fatal(err)
	}
	b.measuredPass(nil, false, func() {})
	if r.failed != 0 {
		t.Fatalf("unplanted pass failed %d ops: %v", r.failed, r.problems)
	}
	b.want.events++
	b.measuredPass(nil, false, func() {})
	if res, _ := r.result(false); res.Failed == 0 {
		t.Fatal("a pass whose counts differ from the reference did not fail")
	}
}
