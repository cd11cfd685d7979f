package workload_test

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestGeneratedProgramParses(t *testing.T) {
	p := workload.DefaultProgGenParams()
	src := workload.GenerateProgram(p)
	prog, err := ops5.Parse(src)
	if err != nil {
		t.Fatalf("generated program does not parse: %v", err)
	}
	want := p.Stations * p.RulesPerStation
	if len(prog.Productions) != want {
		t.Errorf("productions = %d, want %d", len(prog.Productions), want)
	}
}

func TestGeneratedProgramAffectedProductions(t *testing.T) {
	// Driving the generated program through the real Rete matcher must
	// produce double-digit affected-production counts per change, the
	// §4 regime the six CMU systems live in.
	p := workload.DefaultProgGenParams()
	prog, err := ops5.Parse(workload.GenerateProgram(p))
	if err != nil {
		t.Fatal(err)
	}
	net, err := rete.Compile(prog.Productions)
	if err != nil {
		t.Fatal(err)
	}
	counts := trace.Count(net)
	for _, batch := range workload.GenerateDriver(p, 60) {
		net.Apply(batch)
	}
	avg := counts.PerChange(counts.Affected)
	if avg < 5 || avg > 60 {
		t.Errorf("affected productions per change = %.1f, want 5-60", avg)
	}
	if net.Stats.Anomalies != 0 {
		t.Errorf("anomalies = %d", net.Stats.Anomalies)
	}
	// Node sharing must be substantial: every station's rules share the
	// class root and many constant tests.
	c := net.Counts()
	if c.SharedConstSavings < p.Stations*p.RulesPerStation/2 {
		t.Errorf("shared const savings = %d, want substantial sharing", c.SharedConstSavings)
	}
}

func TestGeneratedProgramTraceSimulates(t *testing.T) {
	p := workload.DefaultProgGenParams()
	prog, err := ops5.Parse(workload.GenerateProgram(p))
	if err != nil {
		t.Fatal(err)
	}
	net, err := rete.Compile(prog.Productions)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder("proggen", net, cost.Default())
	for _, batch := range workload.GenerateDriver(p, 40) {
		rec.Apply(batch)
	}
	if rec.Trace.Changes == 0 || len(rec.Trace.Tasks) == 0 {
		t.Fatal("empty trace")
	}
	if cpc := rec.Trace.CostPerChange(); cpc < 100 {
		t.Errorf("cost per change = %.0f, implausibly small", cpc)
	}
}

func TestGeneratedDriverDeterministic(t *testing.T) {
	p := workload.DefaultProgGenParams()
	a := workload.GenerateDriver(p, 20)
	b := workload.GenerateDriver(p, 20)
	if len(a) != len(b) {
		t.Fatal("batch counts differ")
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("batch %d sizes differ", i)
		}
		for j := range a[i] {
			if a[i][j].Kind != b[i][j].Kind || !a[i][j].WME.Equal(b[i][j].WME) {
				t.Fatalf("batch %d change %d differs", i, j)
			}
		}
	}
}
