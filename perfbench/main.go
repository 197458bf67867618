// Command perfbench is the repository benchmark. It drives the public
// download.Run API over fixed workloads from one closed-loop caller,
// checks every result, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics of a traced run) as one JSON object on
// the last line of standard output. Human-readable tables go to standard
// error. See README.md for the workloads and the metric map.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload crashk-des --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"
)

// processStart anchors setup_s: the first set-up is timed from here.
var processStart = time.Now()

// metric is one reported value, serialized as {"value": …, "unit": …}.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports, in table order.
// Two further end-to-end figures, msgs_per_download and fail_ratio, are
// printed in the table only: both are zero on some workload, and a zero
// median has no relative bound. The JSON line carries the failures as
// attempted/failed.
var endToEnd = []metricDef{
	{"download_ms_p50", "ms"},
	{"download_ms_p90", "ms"},
	{"downloads_per_s", "1/s"},
	{"cpu_ms_per_download", "ms"},
	{"alloc_mb_per_download", "MB"},
	{"peak_rss_mb", "MB"},
	{"q_max_bits", "bits"},
	{"setup_s", "s"},
}

// perLayer lists the metrics a --trace 1 run reports, in table order.
var perLayer = []metricDef{
	{"des.events", "count"},
	{"des.self_ms", "ms"},
	{"des.queue_depth_p50", "count"},
	{"protocols.steps", "count"},
	{"protocols.step_ms", "ms"},
	{"sm.parallelism", "ratio"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.gc_cycles", "count"},
	{"netrt.frames", "count"},
	{"netrt.msg_frames", "count"},
	{"netrt.ack_frames", "count"},
	{"netrt.frame_bytes", "bytes"},
	{"netrt.batch_frames_mean", "count"},
	{"netrt.backpressure", "count"},
	{"netrt.dup_frames", "count"},
	{"netrt.query_retries", "count"},
	{"download.cpu_per_wall", "ratio"},
	{"source.proofs", "count"},
	{"source.fallbacks", "count"},
	{"source.verified_ratio", "ratio"},
	{"merkle.verify_us", "us"},
	{"merkle.verify_share", "ratio"},
	{"download.unattributed_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// runConfig sizes one run. The command-line flags fill it; the self-test
// shrinks it to a few downloads.
type runConfig struct {
	seed    int64
	seconds time.Duration
	// minDownloads is the fewest downloads a run measures, however long
	// they take: 100 puts ten samples beyond the p90.
	minDownloads int
	// minTraced is the fewest untraced/traced pairs a traced run makes.
	minTraced int
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps int
	// spanDir, when set, receives the traced run's spans as JSON lines.
	spanDir string
}

// hardCap bounds one run's measuring loop, so a run exits well within
// 180 seconds even on a machine far slower than expected.
const hardCap = 120 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or \"all\" ("+workloadNames()+")")
	seed := fs.Int64("seed", 1, "workload seed: inputs and per-download seeds derive from it")
	seconds := fs.Int("seconds", 10, "seconds the run measures")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics; 1 runs traced and prints per-layer metrics")
	selftest := fs.Bool("selftest", false, "run every workload for a few downloads and check the output contract")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *selftest {
		if err := selfTest("BENCHMARK.json", stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: selftest failed:\n%v\n", err)
			return 1
		}
		fmt.Fprintln(stderr, "perfbench: selftest ok")
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", *name, workloadNames())
		return 2
	}
	cfg := runConfig{
		seed:         *seed,
		seconds:      time.Duration(*seconds) * time.Second,
		minDownloads: 100,
		minTraced:    20,
		setupReps:    15,
		spanDir:      ".bench_build/perfbench/spans",
	}
	var res result
	var err error
	if *trace == 1 {
		res, err = traceRun(w, cfg, stderr)
	} else {
		res, err = endToEndRun(w, cfg, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own process, one after the other, so
// each reports its own peak RSS. It forwards the other flags unchanged.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var rest []string
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-workload", "--workload":
			i++
		case "-workload=all", "--workload=all":
		default:
			rest = append(rest, args[i])
		}
	}
	code := 0
	for _, w := range workloads {
		fmt.Fprintf(stdout, "# %s\n", w.name)
		cmd := exec.Command(exe, append([]string{"--workload", w.name}, rest...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}
