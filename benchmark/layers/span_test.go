package layers

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		// One operation: 100 ns in the engine, of which the matcher
		// covers 60 (two batches) and the log 10.
		{ID: 1, Op: 0, Layer: "engine", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Op: 0, Layer: "rete", StartNs: 10, EndNs: 50},
		{ID: 3, Parent: 1, Op: 0, Layer: "rete", StartNs: 60, EndNs: 80},
		{ID: 4, Parent: 1, Op: 0, Layer: "durable", StartNs: 85, EndNs: 95},
		// A grandchild comes off its parent, not off the root.
		{ID: 5, Parent: 2, Op: 0, Layer: "conflict", StartNs: 20, EndNs: 25},
		// Set-up is left out unless asked for.
		{ID: 6, Op: -1, Layer: "engine", StartNs: 200, EndNs: 1200},
	}
	got := SelfTimes(spans, false)
	want := map[string]time.Duration{"engine": 30, "rete": 55, "durable": 10, "conflict": 5}
	if len(got) != len(want) {
		t.Errorf("SelfTimes = %v, want %v", got, want)
	}
	var sum time.Duration
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("%s: self time %v, want %v", layer, got[layer], d)
		}
		sum += got[layer]
	}
	if sum != 100 {
		t.Errorf("self times sum to %v, the operation took 100ns", sum)
	}
	if all := SelfTimes(spans, true); all["engine"] != 1030 {
		t.Errorf("with set-up: engine %v, want 1030ns", all["engine"])
	}
}
