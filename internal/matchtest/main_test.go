package matchtest_test

import (
	"os"
	"runtime"
	"testing"
)

// TestMain raises GOMAXPROCS to at least 8 before any matcher is built.
// A parallel matcher builds at most GOMAXPROCS lanes and the lane pool
// holds GOMAXPROCS−1 helpers, both fixed when they are made, so on a
// two-CPU machine the differential matrix (workers 1/2/4/16 × bypass)
// and the skewed-workload tests would otherwise never run more than two
// lanes at once.
func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(max(8, runtime.GOMAXPROCS(0)))
	os.Exit(m.Run())
}
