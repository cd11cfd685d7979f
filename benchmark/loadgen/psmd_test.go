package loadgen

import (
	"strings"
	"testing"
)

func TestParseMallocs(t *testing.T) {
	profile := `heap profile: 3: 4096 [12: 65536] @ heap/1048576
1: 1024 [2: 2048] @ 0x1 0x2
#	0x1	main.f+0x1	/x.go:1

# runtime.MemStats
# Alloc = 1048576
# TotalAlloc = 9999999
# Sys = 12345678
# Lookups = 0
# Mallocs = 314159
# Frees = 271828
`
	got, err := ParseMallocs(strings.NewReader(profile))
	if err != nil || got != 314159 {
		t.Fatalf("ParseMallocs = %d, %v; want 314159", got, err)
	}
	if _, err := ParseMallocs(strings.NewReader("# Frees = 1\n")); err == nil {
		t.Error("a profile without a Mallocs line parsed")
	}
	if _, err := ParseMallocs(strings.NewReader("# Mallocs = many\n")); err == nil {
		t.Error("a non-numeric Mallocs line parsed")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tpsmd\nVmPeak:\t 1234567 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n"
	got, err := ParseVmHWM(strings.NewReader(status))
	if err != nil || got != 20 {
		t.Fatalf("ParseVmHWM = %v, %v; want 20 MiB", got, err)
	}
	for _, bad := range []string{"Name:\tpsmd\n", "VmHWM:\t20480 pages\n", "VmHWM:\tlots kB\n"} {
		if _, err := ParseVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseVmHWM(%q) parsed", bad)
		}
	}
}
