// Parallelmatch measures the real (goroutine) fine-grain parallel Rete
// matcher against the serial matcher on this machine, sweeping the
// worker count — the live counterpart of the paper's simulated
// Figure 6-1. A large random rule program and wide WM-change batches
// provide enough node activations per batch for the worker pool to
// exploit.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/matchtest"
	"repro/internal/ops5"
	"repro/internal/prete"
	"repro/internal/rete"
)

func main() {
	prods := flag.Int("prods", 150, "number of random productions")
	batches := flag.Int("batches", 60, "number of WM-change batches")
	batchSize := flag.Int("batch", 40, "changes per batch")
	seed := flag.Int64("seed", 1, "generation seed")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	params := matchtest.DefaultGenParams()
	params.Productions = *prods
	params.MaxCEs = 3
	params.Classes = 6
	params.Values = 5
	program := matchtest.RandomProgram(rng, params)
	script := matchtest.RandomScript(rng, params, *batches, *batchSize)
	var nChanges int
	for _, b := range script.Batches {
		nChanges += len(b)
	}
	fmt.Printf("%d productions, %d batches, %d WM changes, GOMAXPROCS=%d\n\n",
		len(program), *batches, nChanges, runtime.GOMAXPROCS(0))

	// Serial Rete baseline.
	serial := measureSerial(program, script)
	fmt.Printf("%-16s %10s %12s %9s\n", "matcher", "time", "wme-ch/s", "speed-up")
	fmt.Printf("%-16s %10s %12.0f %9s\n", "serial rete", serial.Round(time.Millisecond),
		float64(nChanges)/serial.Seconds(), "1.00")

	workerSet := []int{1, 2, 4, 8}
	if g := runtime.GOMAXPROCS(0); g > 8 {
		workerSet = append(workerSet, g)
	}
	for _, workers := range workerSet {
		d := measureParallel(program, script, workers)
		fmt.Printf("parallel (w=%-3d) %10s %12.0f %9.2f\n", workers,
			d.Round(time.Millisecond), float64(nChanges)/d.Seconds(),
			serial.Seconds()/d.Seconds())
	}
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Println("\n(This host has a single CPU: the matcher caps its lanes at GOMAXPROCS,")
		fmt.Println("so every row runs one lane on the caller and what you see is the cost")
		fmt.Println("of fine-grain tasking without parallelism. On a multi-core host the")
		fmt.Println("w>1 rows show real speed-up against the §6 'lost factor'; the PSM")
		fmt.Println("simulator (cmd/psmsim) reproduces the paper's 32-processor scaling")
		fmt.Println("either way.)")
	} else {
		fmt.Println("\n(The paper's point holds on real hardware too: fine-grain speed-up is")
		fmt.Println("real but bounded — the per-activation scheduling and locking overhead")
		fmt.Println("eats into the available parallelism, its §6 'lost factor'.)")
	}
}

// cloneScript re-tags fresh WME copies so each run is independent.
func cloneScript(script *matchtest.Script) [][]ops5.Change {
	clones := make(map[*ops5.WME]*ops5.WME)
	out := make([][]ops5.Change, len(script.Batches))
	for i, b := range script.Batches {
		row := make([]ops5.Change, len(b))
		for j, ch := range b {
			w, ok := clones[ch.WME]
			if !ok {
				w = ch.WME.Clone()
				clones[ch.WME] = w
			}
			row[j] = ops5.Change{Kind: ch.Kind, WME: w}
		}
		out[i] = row
	}
	return out
}

func measureSerial(prods []*ops5.Production, script *matchtest.Script) time.Duration {
	net, err := rete.Compile(prods)
	if err != nil {
		log.Fatal(err)
	}
	batches := cloneScript(script)
	start := time.Now()
	for _, b := range batches {
		net.Apply(b)
	}
	return time.Since(start)
}

func measureParallel(prods []*ops5.Production, script *matchtest.Script, workers int) time.Duration {
	m, err := prete.New(prods, workers)
	if err != nil {
		log.Fatal(err)
	}
	batches := cloneScript(script)
	start := time.Now()
	for _, b := range batches {
		m.Apply(b)
	}
	return time.Since(start)
}
