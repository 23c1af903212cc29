package main

import "testing"

func series(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so quantile must sort
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true},   // 10 samples beyond
		{99, 0.90, 90, false},   // 9 beyond
		{1000, 0.99, 990, true}, // 10 beyond
		{999, 0.99, 990, false},
		{60, 0.80, 48, true}, // 12 beyond
		{5, 0.50, 3, false},
	} {
		got, ok := tailQuantile(series(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("tailQuantile(n=%d, p=%v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	for _, p := range []float64{0.5, 0.8, 0.9, 0.99} {
		n := samplesFor(p)
		if _, ok := tailQuantile(series(n), p); !ok {
			t.Errorf("samplesFor(%v) = %d does not satisfy the rule", p, n)
		}
		if _, ok := tailQuantile(series(n-1), p); ok {
			t.Errorf("samplesFor(%v) = %d is not the fewest", p, n)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}
