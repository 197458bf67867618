package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/download"
)

// setUp generates the run's inputs and makes one untimed warm-up
// download, cfg.setupReps times, and returns the last inputs with the
// median set-up time. The first repetition is timed from process start.
func setUp(w *workload, cfg runConfig) (*inputs, float64, error) {
	var in *inputs
	times := make([]float64, 0, cfg.setupReps)
	for r := 0; r < max(cfg.setupReps, 1); r++ {
		start := time.Now()
		if r == 0 {
			start = processStart
		}
		in = newInputs(w, cfg.seed)
		o := in.options(-1 - r)
		rep, err := download.Run(o)
		if err := checkReport(o, rep, err); err != nil {
			return nil, 0, fmt.Errorf("warm-up download: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return in, quantile(times, 0.5), nil
}

// endToEndRun measures back-to-back untraced downloads for cfg.seconds
// (and at least cfg.minDownloads of them) and reports the end-to-end
// metrics.
func endToEndRun(w *workload, cfg runConfig, log io.Writer) (result, error) {
	in, setupS, err := setUp(w, cfg)
	if err != nil {
		return result{}, err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	var (
		lat          []float64
		failed       int
		qSum, msgSum float64
		good         int
	)
	for i := 0; ; i++ {
		if el := time.Since(start); (el >= cfg.seconds && i >= cfg.minDownloads) || el >= hardCap {
			break
		}
		o := in.options(i)
		t := time.Now()
		rep, err := download.Run(o)
		lat = append(lat, ms(time.Since(t)))
		if err := checkReport(o, rep, err); err != nil {
			failed++
			fmt.Fprintf(log, "perfbench: %s: download %d: %v\n", w.name, i, err)
			continue
		}
		good++
		qSum += float64(rep.Q)
		msgSum += float64(rep.Msgs)
	}
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)

	n := float64(len(lat))
	res := result{
		Correct:   failed == 0,
		Attempted: len(lat),
		Failed:    failed,
		Metrics: map[string]metric{
			"download_ms_p50":       {quantile(lat, 0.5), "ms"},
			"download_ms_p90":       {quantile(lat, 0.9), "ms"},
			"downloads_per_s":       {float64(good) / wall.Seconds(), "1/s"},
			"cpu_ms_per_download":   {ms(cpu) / n, "ms"},
			"alloc_mb_per_download": {float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / n, "MB"},
			"peak_rss_mb":           {peakRSSMB(), "MB"},
			"q_max_bits":            {ratio(qSum, float64(good)), "bits"},
			"setup_s":               {setupS, "s"},
		},
	}
	fmt.Fprintf(log, "%s: %d downloads in %.1f s, seed %d\n", w.name, len(lat), wall.Seconds(), cfg.seed)
	printMetrics(log, endToEnd, res.Metrics)
	fmt.Fprintf(log, "  %-24s %14.4f %s\n", "msgs_per_download", ratio(msgSum, float64(good)), "count")
	fmt.Fprintf(log, "  %-24s %14.4f %s\n", "fail_ratio", float64(failed)/n, "ratio")
	return res, nil
}

func printMetrics(log io.Writer, defs []metricDef, m map[string]metric) {
	for _, d := range defs {
		fmt.Fprintf(log, "  %-24s %14.4f %s\n", d.name, m[d.name].Value, d.unit)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// ratio divides, returning 0 when the denominator is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports
// Maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
