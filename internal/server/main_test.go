package server_test

import (
	"os"
	"runtime"
	"testing"
)

// TestMain raises GOMAXPROCS to at least 8 before any session is built.
// A parallel-rete session builds at most GOMAXPROCS lanes, so on a
// two-CPU machine a requested worker count of 4 and the GOMAXPROCS
// default would both build two lanes, and the tests here that pin how
// many lanes a session gets could not tell a setting that was applied
// from one that was ignored.
func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(max(8, runtime.GOMAXPROCS(0)))
	os.Exit(m.Run())
}
