package main

import (
	"os"
	"path/filepath"
	"testing"
)

// sample mimics a go-test-JSON stream whose benchmark result line is
// split across two output events, as `go test -json` actually emits.
const sample = `{"Action":"start","Package":"repro"}
{"Action":"output","Package":"repro","Output":"goos: linux\n"}
{"Action":"output","Package":"repro","Test":"BenchmarkMissManners","Output":"BenchmarkMissManners \t"}
{"Action":"output","Package":"repro","Test":"BenchmarkMissManners","Output":"     558\t   2342632 ns/op\t 1822215 B/op\t   11896 allocs/op\n"}
{"Action":"output","Package":"repro","Test":"BenchmarkServerThroughput","Output":"BenchmarkServerThroughput-8 \t"}
{"Action":"output","Package":"repro","Test":"BenchmarkServerThroughput","Output":"     415\t   2577392 ns/op\t     55878 wme-changes/s\t  891811 B/op\t   13115 allocs/op\n"}
{"Action":"output","Package":"repro","Output":"PASS\n"}
`

func writeSample(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseFile(t *testing.T) {
	got, err := parseFile(writeSample(t))
	if err != nil {
		t.Fatal(err)
	}
	manners, ok := got["BenchmarkMissManners"]
	if !ok {
		t.Fatalf("BenchmarkMissManners missing from %v", got)
	}
	if manners["ns/op"] != 2342632 || manners["allocs/op"] != 11896 {
		t.Errorf("manners metrics = %v", manners)
	}
	srv, ok := got["BenchmarkServerThroughput-8"]
	if !ok {
		t.Fatalf("BenchmarkServerThroughput-8 missing from %v", got)
	}
	if srv["wme-changes/s"] != 55878 {
		t.Errorf("server metrics = %v", srv)
	}
}

func TestProcs(t *testing.T) {
	rec := func(names ...string) map[string]map[string]float64 {
		m := map[string]map[string]float64{}
		for _, n := range names {
			m[n] = nil
		}
		return m
	}
	cases := []struct {
		rec  map[string]map[string]float64
		want int
	}{
		{rec("BenchmarkFoo"), 1},
		{rec("BenchmarkFoo-2"), 2},
		{rec("BenchmarkFoo/workers-1-2", "BenchmarkFoo/workers-16-2"), 2},
		// One CPU: the trailing numbers are case names, and differ.
		{rec("BenchmarkFoo/workers-4", "BenchmarkFoo/workers-16"), 1},
		{rec("BenchmarkFoo/fraud", "BenchmarkFoo/monitor"), 1},
		{rec("BenchmarkFoo", "BenchmarkBar-8"), 1},
		{rec(), 1},
	}
	for _, c := range cases {
		if got := procs(c.rec); got != c.want {
			t.Errorf("procs(%v) = %d, want %d", c.rec, got, c.want)
		}
	}
}

func TestLowerIsBetter(t *testing.T) {
	cases := []struct {
		unit                    string
		gateAllocs, gateSpeedup bool
		lower, gated            bool
	}{
		{"ns/op", false, false, true, true},
		{"wme-changes/s", false, false, false, true},
		{"allocs/op", false, false, true, false},
		{"allocs/op", true, false, true, true},
		{"true-speedup", false, false, false, false},
		{"true-speedup", false, true, false, true},
		{"loss-factor", false, true, false, false},
	}
	for _, c := range cases {
		lower, gated := lowerIsBetter(c.unit, c.gateAllocs, c.gateSpeedup)
		if lower != c.lower || gated != c.gated {
			t.Errorf("lowerIsBetter(%q, %v, %v) = (%v, %v), want (%v, %v)",
				c.unit, c.gateAllocs, c.gateSpeedup, lower, gated, c.lower, c.gated)
		}
	}
}
