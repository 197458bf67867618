package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/download"
)

// benchmarkDef is the part of BENCHMARK.json the self-test checks.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// selfTest runs every workload for a few downloads, untraced and traced,
// and checks the output contract against the benchmark definition: every
// named metric printed with its unit and a finite value, every
// end-to-end metric nonzero, spans nested under their download span. Its
// negative controls prove that the traced-vs-untraced check and the span
// check both reject what they must.
func selfTest(benchFile string, log io.Writer) error {
	raw, err := os.ReadFile(benchFile)
	if err != nil {
		return err
	}
	var def benchmarkDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("%s: %w", benchFile, err)
	}
	wantE2E := make(map[string]string)
	for _, m := range def.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	wantLayer := make(map[string]string)
	for _, m := range def.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	var errs []error
	if len(def.Workloads) != len(workloads) {
		errs = append(errs, fmt.Errorf("%s lists %d workloads, the program runs %d", benchFile, len(def.Workloads), len(workloads)))
	}
	for _, dw := range def.Workloads {
		if _, ok := lookup(dw.Name); !ok {
			errs = append(errs, fmt.Errorf("%s names workload %q, which the program lacks", benchFile, dw.Name))
		}
	}

	cfg := runConfig{seed: 7, minDownloads: 3, minTraced: 2, setupReps: 2}
	for i := range workloads {
		w := &workloads[i]
		res, err := endToEndRun(w, cfg, log)
		if err == nil {
			err = checkResult(res, wantE2E, true)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s end-to-end: %w", w.name, err))
		}
		res, err = traceRun(w, cfg, log)
		if err == nil {
			err = checkResult(res, wantLayer, false)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s traced: %w", w.name, err))
		}
	}

	for _, name := range []string{"crashk-des", "committee-sm"} {
		if err := mismatchControl(name); err != nil {
			errs = append(errs, err)
		}
	}
	escaping := []span{
		{ID: 1, Name: "download", Start: 10, End: 20},
		{ID: 2, Parent: 1, Name: "des.run", Start: 12, End: 25},
	}
	if checkSpans(escaping) == nil {
		errs = append(errs, errors.New("span check accepted a child that outlives its download span"))
	}
	return errors.Join(errs...)
}

// checkResult compares a run's result with the metrics it must report.
func checkResult(res result, want map[string]string, nonzero bool) error {
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		return fmt.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	var errs []error
	for name, unit := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s missing", name))
		case m.Unit != unit:
			errs = append(errs, fmt.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit))
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			errs = append(errs, fmt.Errorf("metric %s is %v", name, m.Value))
		case nonzero && m.Value == 0:
			errs = append(errs, fmt.Errorf("metric %s is 0", name))
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			errs = append(errs, fmt.Errorf("metric %s is not in the benchmark definition", name))
		}
	}
	return errors.Join(errs...)
}

// mismatchControl runs one download of a des workload, then its traced
// pass twice: with the faithful spec it must match, and with the delay
// adversary's seed shifted by one it must trip the comparison.
func mismatchControl(name string) error {
	w, _ := lookup(name)
	o := newInputs(w, 7).options(0)
	rep, err := download.Run(o)
	if err := checkReport(o, rep, err); err != nil {
		return fmt.Errorf("%s control: %w", name, err)
	}
	tr := newTracer()
	for _, skew := range []int64{0, 1} {
		dl := tr.begin("download", 0, int(skew))
		_, _, err := tracedPass(o, rep, nil, tr, dl, skew)
		tr.end(dl)
		switch {
		case skew == 0 && err != nil:
			return fmt.Errorf("%s control: faithful traced pass: %w", name, err)
		case skew == 1 && !errors.Is(err, errTraceMismatch):
			return fmt.Errorf("%s control: a mismatched des spec was not caught (err=%v)", name, err)
		}
	}
	return checkSpans(tr.spans)
}
