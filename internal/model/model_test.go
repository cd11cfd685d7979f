package model_test

import (
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func TestBreakEvenMatchesPaper(t *testing.T) {
	m := model.PaperCosts()
	got := m.BreakEvenRatio()
	if got < 0.60 || got > 0.62 {
		t.Errorf("break-even ratio = %.3f, paper says 0.61", got)
	}
}

func TestCostsAtBreakEvenAreEqual(t *testing.T) {
	m := model.PaperCosts()
	s := 1000.0
	id := m.BreakEvenRatio() * s
	state := m.StateSavingCost(id/2, id/2)
	non := m.NonStateSavingCost(s)
	if diff := state - non; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("at break-even, costs differ: %f vs %f", state, non)
	}
}

func TestAdvantageAtMeasuredTurnover(t *testing.T) {
	m := model.PaperCosts()
	// At 0.5% turnover the advantage is c3/(0.005*c1) ≈ 122; the paper
	// conservatively quotes "about 20" against practical fixed costs.
	got := m.Advantage(0.005)
	if got < 100 || got > 140 {
		t.Errorf("advantage = %.0f, want ≈122", got)
	}
	if m.Advantage(0) != 0 {
		t.Error("advantage at 0 turnover should be 0 (guard)")
	}
}

func TestQuickAdvantageMonotone(t *testing.T) {
	m := model.PaperCosts()
	f := func(a, b float64) bool {
		ra, rb := abs(a)+1e-6, abs(b)+1e-6
		if ra > rb {
			ra, rb = rb, ra
		}
		// Lower turnover -> larger advantage for state saving.
		return m.Advantage(ra) >= m.Advantage(rb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
