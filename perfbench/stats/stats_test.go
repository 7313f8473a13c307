package stats

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// The quartiles must agree with Python's statistics.quantiles(xs, n=4)
// (method "exclusive"); the expected values were computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
		median float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75, 2.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25, 5.5},
		{[]float64{5, 1, 3}, 1, 5, 3},
		{[]float64{2, 9}, 0.25, 10.75, 5.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q3 := Quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
		if m := Median(c.xs); !near(m, c.median) {
			t.Errorf("Median(%v) = %v, want %v", c.xs, m, c.median)
		}
	}
	if q1, _ := Quartiles(nil); !math.IsNaN(q1) {
		t.Error("quartiles of no samples must be NaN")
	}
}

func TestQuartilesLeaveInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quartiles(xs)
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestSpread(t *testing.T) {
	if s := Spread([]float64{1, 2, 3, 4}); !near(s, (3.75-1.25)/2.5) {
		t.Errorf("Spread = %v", s)
	}
	if s := Spread([]float64{0, 0, 0}); !math.IsInf(s, 1) {
		t.Errorf("spread around a zero median = %v, want +Inf", s)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{4}, 0.99); got != 4 {
		t.Errorf("one sample: %v", got)
	}
}

func TestPairWinsTiesCountForNeither(t *testing.T) {
	parent := []float64{10, 10, 10, 10}
	change := []float64{9, 11, 10, 8}
	wins, losses, pairs := PairWins(parent, change, true)
	if wins != 2 || losses != 1 || pairs != 4 {
		t.Errorf("lower-better: wins %d losses %d pairs %d, want 2 1 4", wins, losses, pairs)
	}
	wins, losses, _ = PairWins(parent, change, false)
	if wins != 1 || losses != 2 {
		t.Errorf("higher-better: wins %d losses %d, want 1 2", wins, losses)
	}
	if _, _, pairs := PairWins(parent, change[:3], true); pairs != 3 {
		t.Errorf("pairs beyond the shorter side counted: %d", pairs)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name           string
		parent, change []float64
		lower          bool
		want           string
	}{
		{"gain in every pair", parent, faster, true, Better},
		{"regression beyond the bound", parent, slower, true, Worse},
		{"within the bound", parent, parent, true, Same},
		{"higher is better", parent, slower, false, Better},
		{"parent spread wider than the bound", noisy, noisy, true, Unresolved},
		{"every change run beats every parent run", noisy, []float64{50, 51, 52, 53, 54, 55, 56, 57, 58, 59}, true, Better},
		{"nine tenths of pairs won is not enough alone", parent, []float64{99.5, 100.5, 98.5, 99.5, 101.5, 97.5, 99.5, 100.5, 98.5, 99.5}, true, Same},
	} {
		if got := Verdict(c.parent, c.change, c.lower, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
