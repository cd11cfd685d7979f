package stats

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("psmd_requests_total", "requests served")
	g := r.Gauge("psmd_sessions", "live sessions")
	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Add(-2)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if g.Value() != 5 {
		t.Errorf("gauge = %d, want 5", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.02, 0.02, 0.5, 2} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-2.545) > 1e-9 {
		t.Errorf("sum = %g, want 2.545", h.Sum())
	}
	var b strings.Builder
	r.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE lat histogram",
		`lat_bucket{le="0.01"} 1`,
		`lat_bucket{le="0.1"} 3`,
		`lat_bucket{le="1"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		"lat_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTextGroupsLabelledFamilies(t *testing.T) {
	r := NewRegistry()
	r.Gauge(`depth{shard="0"}`, "queue depth").Set(3)
	r.Gauge(`depth{shard="1"}`, "queue depth").Set(9)
	r.GaugeFunc("rate", "per-second rate", func() float64 { return 42.5 })
	var b strings.Builder
	r.WriteText(&b)
	out := b.String()
	if strings.Count(out, "# TYPE depth gauge") != 1 {
		t.Errorf("want one TYPE header for depth family:\n%s", out)
	}
	for _, want := range []string{`depth{shard="0"} 3`, `depth{shard="1"} 9`, "rate 42.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("x", "")
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	h := r.Histogram("h", "", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-8.0) > 1e-6 {
		t.Errorf("histogram sum = %g, want 8", h.Sum())
	}
}
