package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRngDeterministic(t *testing.T) {
	a := NewRng("x", 1).Int63()
	b := NewRng("x", 1).Int63()
	c := NewRng("x", 2).Int63()
	if a != b {
		t.Fatalf("same labels must give the same stream")
	}
	if a == c {
		t.Fatalf("different labels should give different streams")
	}
}

func TestDecadeHistBuckets(t *testing.T) {
	h := NewDecadeHist(-3, 3)
	h.Add(150)   // decade 2 positive
	h.Add(120)   // decade 2 positive
	h.Add(-0.05) // decade -2 negative
	h.Add(1e-9)  // below min: zero band
	h.Add(math.NaN())
	if h.Total != 5 {
		t.Fatalf("total = %d", h.Total)
	}
	if h.Zero != 2 {
		t.Fatalf("zero band = %d, want 2 (tiny + NaN)", h.Zero)
	}
	if h.Pos[2-(-3)] != 2 {
		t.Fatalf("positive decade-2 count = %d", h.Pos[5])
	}
	if h.Neg[-2-(-3)] != 1 {
		t.Fatalf("negative decade count wrong")
	}
}

func TestDecadeHistPeaks(t *testing.T) {
	h := NewDecadeHist(-3, 3)
	for i := 0; i < 6; i++ {
		h.Add(50) // decade 1
	}
	for i := 0; i < 4; i++ {
		h.Add(500) // decade 2
	}
	if got := h.Peak(); math.Abs(got-0.6) > 1e-9 {
		t.Fatalf("Peak = %f, want 0.6", got)
	}
	if got := h.MagPeak2(); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("MagPeak2 = %f, want 1.0 (adjacent decades)", got)
	}
}

func TestCorrelationPoints(t *testing.T) {
	h := NewDecadeHist(-6, 6)
	for i := 0; i < 40; i++ {
		h.Add(100)
		h.Add(-100)
		h.Add(1e-9)
	}
	if got := h.CorrelationPoints(0.05); got != 3 {
		t.Fatalf("correlation points = %d, want 3", got)
	}
	h2 := NewDecadeHist(-6, 6)
	h2.Add(5)
	if got := h2.CorrelationPoints(0.05); got != 1 {
		t.Fatalf("single cluster points = %d, want 1", got)
	}
}

func TestDecadeHistClampsExtremes(t *testing.T) {
	h := NewDecadeHist(-3, 3)
	h.Add(1e30) // beyond MaxExp: clamps into the top bucket
	if h.Pos[len(h.Pos)-1] != 1 {
		t.Fatalf("extreme value not clamped into top decade")
	}
}

func TestQuickHistTotalsConserved(t *testing.T) {
	f := func(vals []float64) bool {
		h := NewDecadeHist(-10, 10)
		for _, v := range vals {
			h.Add(v)
		}
		var sum int64 = h.Zero
		for _, c := range h.Neg {
			sum += c
		}
		for _, c := range h.Pos {
			sum += c
		}
		return sum == h.Total && h.Total == int64(len(vals))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanAndPercent(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatalf("Mean(nil)")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %f", got)
	}
}
