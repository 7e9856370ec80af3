package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestMedianMatchesSort checks median against the middle of an exact sort.
func TestMedianMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 41; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		want := s[n/2]
		if n%2 == 0 {
			want = (s[n/2-1] + s[n/2]) / 2
		}
		if got := median(xs); got != want {
			t.Fatalf("n=%d: median %v, sorted middle %v", n, got, want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of no samples should be NaN")
	}
}

// TestPercentileMatchesSort checks the nearest-rank percentile against a
// count over the exact sort: at least p% of the samples are <= it, and
// fewer than p% are below it.
func TestPercentileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 9, 10, 99, 100, 101, 999, 1000, 1009, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(n)) // ties included
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		for _, p := range []float64{1, 25, 50, 90, 99, 99.9, 100} {
			got, ok := percentile(xs, p)
			le, lt := 0, 0
			for _, x := range s {
				if x <= got {
					le++
				}
				if x < got {
					lt++
				}
			}
			if float64(le) < p/100*float64(n) || float64(lt) >= p/100*float64(n) {
				t.Fatalf("n=%d p=%v: %v has %d samples <= and %d < it", n, p, got, le, lt)
			}
			beyond := n - int(math.Ceil(p/100*float64(n)))
			if beyond < 0 {
				beyond = 0
			}
			if ok != (beyond >= minTail) {
				t.Fatalf("n=%d p=%v: reportable=%v with %d samples beyond", n, p, ok, beyond)
			}
		}
	}
}

// TestP99NeedsATail pins the sample counts at which a p99 becomes
// reportable: 1000 samples leave exactly 10 beyond it.
func TestP99NeedsATail(t *testing.T) {
	xs := make([]float64, 999)
	if _, ok := percentile(xs, 99); ok {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be withheld")
	}
	xs = append(xs, 0)
	if _, ok := percentile(xs, 99); !ok {
		t.Fatal("p99 of 1000 samples has 10 beyond it and may be reported")
	}
}
