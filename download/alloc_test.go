package download_test

import (
	"runtime"
	"testing"

	"repro/download"
)

// TestCrashKFastAllocBudget is the allocation regression gate for the
// crashk stage-2 answer path at the benchmark's crashk-des shape: one
// download must allocate at most 8 MB in total. Stage-2 answers alias
// their request's items and pack values into one array, and phase set-up
// walks unknown runs instead of materializing index slices; copying per
// answered item again roughly triples the figure.
func TestCrashKFastAllocBudget(t *testing.T) {
	const budget = 8 << 20
	opts := download.Options{
		Protocol: download.CrashKFast, N: 64, T: 57, L: 4096,
		Behavior: download.CrashRandom, Workers: 1, Seed: 1,
	}
	run := func() {
		rep, err := download.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct {
			t.Fatalf("incorrect: %v", rep.Failures)
		}
	}
	run() // warm package-level state so the measured run is steady-state
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("one crashk-des download allocated %.2f MB, budget %.0f MB",
			float64(got)/(1<<20), float64(budget)/(1<<20))
	} else {
		t.Logf("one crashk-des download allocated %.2f MB", float64(got)/(1<<20))
	}
}
