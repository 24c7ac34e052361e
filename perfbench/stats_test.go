package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 30}, {0.9, 46}, {0.99, 49.6}, {1, 50},
	} {
		if got := quantile(s, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
}

// The expected values are Python's statistics.quantiles(data, n=4) and
// statistics.median, which the acceptance check of the benchmark uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data       []float64
		q1, q3, md float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 5.5},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75, 2.5},
		{[]float64{5, 1}, 0, 6, 3},
		{[]float64{3.2, 1.1, 9.7, 4.4, 4.4, 0.5, 7.25}, 1.1, 7.25, 4.4},
	} {
		q1, q3 := quartiles(c.data)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.data, q1, q3, c.q1, c.q3)
		}
		if md := median(c.data); !near(md, c.md) {
			t.Errorf("median(%v) = %v, want %v", c.data, md, c.md)
		}
	}
}

func TestVerdictAgainstBound(t *testing.T) {
	for _, c := range []struct {
		values []float64
		bound  float64
		want   string
	}{
		{[]float64{100, 101, 99, 100, 100.5}, 0.1, "steady"},
		{[]float64{100, 110, 90, 105, 95}, 0.25, "within bound"},
		{[]float64{100, 150, 60, 120, 80}, 0.25, "WIDE"},
	} {
		if got := verdict(summarize(c.values, c.bound)); got != c.want {
			t.Errorf("verdict(%v, bound %v) = %q, want %q", c.values, c.bound, got, c.want)
		}
	}
}

func TestWindowQuantileIgnoresOneDisturbedWindow(t *testing.T) {
	var at, v []float64
	for w := 0; w < 5; w++ {
		for i := 0; i < 20; i++ {
			at = append(at, float64(w)+float64(i)/20)
			x := 1.0
			if w == 2 {
				x = 50 // one window of a disturbed host
			}
			v = append(v, x)
		}
	}
	if got := windowQuantile(at, v, 1, 0.9, 10); got != 1 {
		t.Fatalf("windowQuantile = %v, want 1", got)
	}
	// Windows with too few samples do not vote.
	if got := windowQuantile(append(at, 7.5), append(v, 99), 1, 0.5, 10); got != 1 {
		t.Fatalf("windowQuantile with a sparse window = %v, want 1", got)
	}
}

func TestShapeQuantileAveragesShapes(t *testing.T) {
	// Two shapes of very different cost, 50/50: the pooled median would fall
	// between the modes; the per-shape median averages them.
	var p phaseResult
	for i := 0; i < 40; i++ {
		p.atS = append(p.atS, 0.5)
		p.who = append(p.who, i%2)
		p.latMS = append(p.latMS, 1+9*float64(i%2)+0.001*float64(i))
	}
	got := shapeQuantile(&p, []int{0, 1}, 1, 0.5, 10, -1)
	if got < 5.4 || got > 5.6 {
		t.Fatalf("shapeQuantile = %v, want about (1 + 10) / 2", got)
	}
	if got := shapeQuantile(&p, []int{0, 1}, 1, 0.5, 10, 1); got < 10 || got > 10.1 {
		t.Fatalf("shapeQuantile of shape 1 = %v, want about 10", got)
	}
}
