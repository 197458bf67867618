package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/download"
)

// workload is one fixed download configuration. Each download copies
// opts and fills in the generated Input and a per-download Seed.
type workload struct {
	name string
	opts download.Options
}

// workloads are the benchmark's four configurations; README.md records
// why each exists and which layer it stresses.
var workloads = []workload{
	{
		name: "crashk-des",
		opts: download.Options{
			Protocol: download.CrashKFast, N: 64, T: 57, L: 4096,
			Behavior: download.CrashRandom, Workers: 1,
		},
	},
	{
		name: "committee-sm",
		opts: download.Options{
			Protocol: download.Committee, N: 64, T: 16, L: 4096,
			Behavior: download.Liar, Workers: 2,
		},
	},
	{
		name: "crash1-tcp",
		opts: download.Options{
			Protocol: download.Crash1, N: 16, T: 1, L: 4096,
			Behavior: download.CrashImmediate, TCP: true,
		},
	},
	{
		name: "byzmirror-tcp",
		opts: download.Options{
			Protocol: download.Naive, N: 16, T: 0, L: 16384,
			Mirrors: "mirrors=5,byz=3,behavior=mixed,leaf=64,seed=9", TCP: true,
		},
	},
}

func lookup(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// inputPool is how many distinct source arrays a run cycles through.
const inputPool = 16

// inputs holds one run's generated source arrays and derives the
// per-download seeds; both come from the workload seed alone.
type inputs struct {
	w    *workload
	seed int64
	xs   [][]bool
}

func newInputs(w *workload, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]bool, inputPool)
	for i := range xs {
		x := make([]bool, w.opts.L)
		for j := range x {
			x[j] = rng.Intn(2) == 1
		}
		xs[i] = x
	}
	return &inputs{w: w, seed: seed, xs: xs}
}

// options returns the configuration of download i. Warm-up downloads use
// negative i, so they never repeat a measured seed.
func (in *inputs) options(i int) download.Options {
	o := in.w.opts
	o.Input = in.xs[(i%inputPool+inputPool)%inputPool]
	o.Seed = mixSeed(in.seed, i)
	return o
}

// mixSeed derives a non-negative per-download seed (splitmix64).
func mixSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(int64(i))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// checkReport verifies one download's outcome: no error, every
// nonfaulty peer correct, the reported output equal to the input, and —
// for naive, which queries every bit exactly once — Q equal to L.
func checkReport(o download.Options, rep *download.Report, err error) error {
	if err != nil {
		return err
	}
	if !rep.Correct {
		return fmt.Errorf("seed %d: Correct=false: %v", o.Seed, rep.Failures)
	}
	if len(rep.Output) != len(o.Input) {
		return fmt.Errorf("seed %d: output has %d bits, input %d", o.Seed, len(rep.Output), len(o.Input))
	}
	for i, b := range rep.Output {
		if b != o.Input[i] {
			return fmt.Errorf("seed %d: output bit %d differs from the input", o.Seed, i)
		}
	}
	if o.Protocol == download.Naive && rep.Q != o.L {
		return fmt.Errorf("seed %d: naive Q=%d, want L=%d: a bit was charged more or less than once", o.Seed, rep.Q, o.L)
	}
	return nil
}
