package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"repro/download"
	"repro/internal/adversary"
	"repro/internal/bitarray"
	"repro/internal/des"
	"repro/internal/merkle"
	"repro/internal/netrt"
	"repro/internal/obs"
	"repro/internal/protocols/committee"
	"repro/internal/sim"
	"repro/internal/source"
)

// The traced run. Each iteration makes one untraced download.Run, then a
// traced download with the same seed: the traced pass rebuilds the des
// spec or netrt config download.Run would build, wraps every protocol
// machine in a step timer, attaches an obs.Registry and calls the
// runtime's Run directly. All spans are recorded here, around calls into
// each layer; the program itself is not changed.

// span is one interval in a download's trace. An aggregate span folds
// many calls (every protocol Step of one download) into one record: it
// runs from the first call's start to the last call's end, and Busy sums
// the calls' own durations.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a download root
	Download int    `json:"download"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Count    int64  `json:"count,omitempty"`
	Busy     int64  `json:"busy_ns,omitempty"`
}

// tracer keeps a run's spans in memory; times are offsets from base.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, download int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Download: download, Name: name, Start: t.now()})
	return id
}

func (t *tracer) end(id int) { t.spans[id-1].End = t.now() }

// aggregate records a folded child span of parent.
func (t *tracer) aggregate(name string, parent int, st stepTotals) {
	if st.steps == 0 {
		return
	}
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Download: p.Download, Name: name,
		Start: int64(st.first), End: int64(st.last), Count: st.steps, Busy: int64(st.busy),
	})
}

func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkSpans verifies that every span nests inside its parent, within the
// same download, and that every chain ends at a "download" root.
func checkSpans(spans []span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			if s.Name != "download" {
				return fmt.Errorf("root span %d is %q, not a download span", s.ID, s.Name)
			}
			continue
		}
		if s.Parent < 1 || s.Parent > len(spans) {
			return fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if p.Download != s.Download || s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s, download %d, %d..%d) escapes parent %d (%s, download %d, %d..%d)",
				s.ID, s.Name, s.Download, s.Start, s.End, p.ID, p.Name, p.Download, p.Start, p.End)
		}
	}
	return nil
}

// stepTimer times every protocol Step of one runtime run. Each machine
// keeps its own totals (a machine never steps concurrently with itself,
// on the speculative scheduler or in a netrt client), and sum folds them
// after the run has returned.
type stepTimer struct {
	base     time.Time
	mu       sync.Mutex // netrt builds peers on concurrent client goroutines
	machines []*timedMachine
}

// timedMachine wraps a protocol machine and times its Steps.
type timedMachine struct {
	m           sim.Machine
	base        time.Time
	steps       int64
	busy        time.Duration
	first, last time.Duration
}

func (t *timedMachine) Step(env *sim.Env, ev sim.Event, em *sim.Emitter) {
	s := time.Since(t.base)
	t.m.Step(env, ev, em)
	e := time.Since(t.base)
	if t.steps == 0 {
		t.first = s
	}
	t.steps++
	t.busy += e - s
	t.last = e
}

// wrap returns a factory whose peers step through timed machines. The
// protocols measured here are all sim.Machine implementations.
func (st *stepTimer) wrap(f func(sim.PeerID) sim.Peer) func(sim.PeerID) sim.Peer {
	return func(id sim.PeerID) sim.Peer {
		p := f(id)
		m, ok := sim.MachineBehind(p)
		if !ok {
			panic(fmt.Sprintf("perfbench: peer %d is not a sim.Machine", id))
		}
		tm := &timedMachine{m: m, base: st.base}
		st.mu.Lock()
		st.machines = append(st.machines, tm)
		st.mu.Unlock()
		return sim.AsPeer(tm)
	}
}

// stepTotals sums one run's step timings.
type stepTotals struct {
	steps       int64
	busy        time.Duration
	first, last time.Duration
}

func (st *stepTimer) sum() stepTotals {
	var t stepTotals
	for _, m := range st.machines {
		if m.steps == 0 {
			continue
		}
		if t.steps == 0 || m.first < t.first {
			t.first = m.first
		}
		if m.last > t.last {
			t.last = m.last
		}
		t.steps += m.steps
		t.busy += m.busy
	}
	return t
}

// msgBits and faultCount resolve the Options defaults the way
// download.Run does.
func msgBits(o download.Options) int {
	if o.MsgBits != 0 {
		return o.MsgBits
	}
	return max(o.L/max(o.N, 1), 64)
}

func faultCount(o download.Options) int {
	if o.Faulty != 0 {
		return o.Faulty
	}
	return o.T
}

// desSpec rebuilds the sim.Spec that download.Run executes for o on the
// des runtime, for the behaviors the des workloads use. delaySkew shifts
// the delay adversary's seed; only the self-test's negative control sets
// it, to build a spec that must not reproduce download.Run.
func desSpec(o download.Options, delaySkew int64) (*sim.Spec, error) {
	factory, err := o.Protocol.Factory()
	if err != nil {
		return nil, err
	}
	faulty := adversary.SpreadFaulty(o.N, faultCount(o))
	var faults sim.FaultSpec
	switch {
	case o.Behavior == download.NoFaults:
		faults = sim.FaultSpec{Model: sim.FaultNone}
	case o.Behavior == download.CrashRandom:
		faults = sim.FaultSpec{Model: sim.FaultCrash, Faulty: faulty,
			Crash: adversary.NewCrashRandom(o.Seed+9, faulty, 100*o.N)}
	case o.Behavior == download.Liar && o.Protocol == download.Committee:
		faults = sim.FaultSpec{Model: sim.FaultByzantine, Faulty: faulty, NewByzantine: committee.NewLiar}
	default:
		return nil, fmt.Errorf("traced des pass does not rebuild behavior %q for %s", o.Behavior, o.Protocol)
	}
	return &sim.Spec{
		Config: sim.Config{
			N: o.N, T: o.T, L: o.L, MsgBits: msgBits(o), Seed: o.Seed,
			Input: bitarray.FromBools(o.Input),
		},
		NewPeer: factory,
		Delays:  adversary.NewRandomUnit(o.Seed + 1000003 + delaySkew),
		Faults:  faults,
		Label:   string(o.Protocol),
		Workers: o.Workers,
	}, nil
}

// netConfig rebuilds the netrt.Config that download.Run uses for o on the
// tcp runtime, for the behaviors the tcp workloads use.
func netConfig(o download.Options) (netrt.Config, error) {
	factory, err := o.Protocol.Factory()
	if err != nil {
		return netrt.Config{}, err
	}
	var absent []sim.PeerID
	switch o.Behavior {
	case download.NoFaults:
	case download.CrashImmediate:
		absent = adversary.SpreadFaulty(o.N, faultCount(o))
	default:
		return netrt.Config{}, fmt.Errorf("traced tcp pass does not rebuild behavior %q", o.Behavior)
	}
	mirrors, err := source.ParseMirrorPlan(o.Mirrors)
	if err != nil {
		return netrt.Config{}, err
	}
	return netrt.Config{
		N: o.N, T: o.T, L: o.L, MsgBits: msgBits(o), Seed: o.Seed,
		NewPeer: factory, Absent: absent, Input: bitarray.FromBools(o.Input),
		Mirrors: mirrors, Label: string(o.Protocol),
	}, nil
}

// errTraceMismatch marks a traced des pass whose paper metrics differ
// from the untraced download.Run with the same seed.
var errTraceMismatch = errors.New("traced pass diverged from download.Run")

// compareTraced requires the traced des pass to reproduce the untraced
// download exactly: otherwise the trace measured a different program.
func compareTraced(seed int64, rep *download.Report, res *sim.Result) error {
	if !res.Correct || res.Q != rep.Q || res.Msgs != rep.Msgs || res.Events != rep.Events {
		return fmt.Errorf("seed %d: %w: traced Q=%d msgs=%d events=%d correct=%v, untraced Q=%d msgs=%d events=%d",
			seed, errTraceMismatch, res.Q, res.Msgs, res.Events, res.Correct, rep.Q, rep.Msgs, rep.Events)
	}
	return nil
}

// tracedPass runs download o's traced pass under span parent: the
// runtime's Run on the rebuilt spec or config, with every protocol Step
// timed and reg attached. It returns the runtime span's length and the
// step totals. A des pass must reproduce the untraced report exactly; a
// tcp pass, whose schedule is not deterministic, gets the checks any
// download gets.
func tracedPass(o download.Options, rep *download.Report, reg *obs.Registry, tr *tracer, parent int, delaySkew int64) (time.Duration, stepTotals, error) {
	timer := &stepTimer{base: tr.base}
	dl := tr.spans[parent-1].Download
	var id int
	var res *sim.Result
	var err error
	if o.TCP {
		var cfg netrt.Config
		if cfg, err = netConfig(o); err != nil {
			return 0, stepTotals{}, err
		}
		cfg.NewPeer = timer.wrap(cfg.NewPeer)
		cfg.Metrics = reg
		id = tr.begin("netrt.run", parent, dl)
		res, err = netrt.Run(cfg)
	} else {
		var spec *sim.Spec
		if spec, err = desSpec(o, delaySkew); err != nil {
			return 0, stepTotals{}, err
		}
		spec.NewPeer = timer.wrap(spec.NewPeer)
		spec.Metrics = reg
		id = tr.begin("des.run", parent, dl)
		res, err = des.New().Run(spec)
	}
	tr.end(id)
	if err != nil {
		return 0, stepTotals{}, err
	}
	steps := timer.sum()
	tr.aggregate("protocols.step", id, steps)
	s := tr.spans[id-1]
	run := time.Duration(s.End - s.Start)
	switch {
	case !o.TCP:
		err = compareTraced(o.Seed, rep, res)
	case !res.Correct:
		err = fmt.Errorf("seed %d: traced pass incorrect: %v", o.Seed, res.Failures)
	case o.Protocol == download.Naive && res.Q != o.L:
		err = fmt.Errorf("seed %d: traced naive Q=%d, want L=%d", o.Seed, res.Q, o.L)
	}
	return run, steps, err
}

// runtimeSample reads the Go runtime's GC counters.
type runtimeSample struct{ gcCPU, usedCPU, cycles float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(0), usedCPU: val(1) - val(2), cycles: val(3)}
}

// traceRun measures cfg.seconds of untraced/traced download pairs and
// reports the per-layer metrics.
func traceRun(w *workload, cfg runConfig, log io.Writer) (result, error) {
	in, _, err := setUp(w, cfg)
	if err != nil {
		return result{}, err
	}
	reg := obs.New()
	tr := newTracer()
	var (
		untraced, traced       []float64
		cpu, wall              time.Duration
		runWall, stepBusy      time.Duration
		steps                  int64
		proofs, hits, fallback float64
		failed                 int
	)
	rt0 := readRuntime()
	start := time.Now()
	n := 0
	for ; ; n++ {
		if el := time.Since(start); (el >= cfg.seconds && n >= cfg.minTraced) || el >= hardCap {
			break
		}
		o := in.options(n)
		c0, t0 := cpuTime(), time.Now()
		rep, err := download.Run(o)
		d := time.Since(t0)
		cpu += cpuTime() - c0
		wall += d
		untraced = append(untraced, ms(d))
		if err := checkReport(o, rep, err); err != nil {
			failed++
			fmt.Fprintf(log, "perfbench: %s: untraced download %d: %v\n", w.name, n, err)
			continue
		}
		proofs += float64(rep.MirrorHits + rep.ProofFailures)
		hits += float64(rep.MirrorHits)
		fallback += float64(rep.FallbackQueries)

		dl := tr.begin("download", 0, n)
		run, st, err := tracedPass(o, rep, reg, tr, dl, 0)
		tr.end(dl)
		runWall += run
		stepBusy += st.busy
		steps += st.steps
		traced = append(traced, float64(tr.spans[dl-1].End-tr.spans[dl-1].Start)/1e6)
		if err != nil {
			failed++
			fmt.Fprintf(log, "perfbench: %s: traced download %d: %v\n", w.name, n, err)
		}
	}
	rt1 := readRuntime()
	if err := checkSpans(tr.spans); err != nil {
		return result{}, err
	}
	if cfg.spanDir != "" {
		path := filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
		if err := tr.writeJSONL(path); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
	}

	nt := float64(len(traced))
	verifyUS, err := merkleVerifyUS(w, in)
	if err != nil {
		return result{}, err
	}
	snap := reg.Snapshot()
	tx := map[string]string{"dir": "tx"}
	frames, _ := sumSeries(snap, "dr_net_frames_total", tx)
	msgFrames, _ := sumSeries(snap, "dr_net_frames_total", map[string]string{"dir": "tx", "kind": "MSG"})
	ackFrames, _ := sumSeries(snap, "dr_net_frames_total", map[string]string{"dir": "tx", "kind": "ACK"})
	frameBytes, _ := sumSeries(snap, "dr_net_frame_bytes_total", tx)
	batchSum, batchCount := sumSeries(snap, "dr_net_shard_batch_frames", nil)
	backpressure, _ := sumSeries(snap, "dr_net_shard_frames_total", map[string]string{"event": "backpressure"})
	dups, _ := sumSeries(snap, "dr_net_dup_frames_dropped_total", nil)
	retries, _ := sumSeries(snap, "dr_net_query_retries_total", nil)
	events, _ := sumSeries(snap, "dr_sim_events_total", nil)

	tracedMean := ratio(sum(traced), nt)
	// The des layer's self time and the speculative scheduler's overlap
	// exist only where des runs; on tcp the runtime span is netrt's.
	var desSelf, parallelism float64
	if !w.opts.TCP {
		desSelf = ratio(ms(runWall-stepBusy), nt)
		parallelism = ratio(float64(stepBusy), float64(runWall))
	}
	stepMs := ratio(ms(stepBusy), nt)
	proofsPer := ratio(proofs, nt)
	merkleMs := proofsPer * verifyUS / 1e3
	unattributed := tracedMean - desSelf - stepMs - merkleMs
	p50u, p50t := quantile(untraced, 0.5), quantile(traced, 0.5)
	downloads := float64(len(untraced) + len(traced))

	m := map[string]metric{
		"des.events":               {ratio(events, nt), "count"},
		"des.self_ms":              {desSelf, "ms"},
		"des.queue_depth_p50":      {histQuantile(snap, "dr_sim_queue_depth", 0.5), "count"},
		"protocols.steps":          {ratio(float64(steps), nt), "count"},
		"protocols.step_ms":        {stepMs, "ms"},
		"sm.parallelism":           {parallelism, "ratio"},
		"go.gc_cpu_frac":           {ratio(rt1.gcCPU-rt0.gcCPU, rt1.usedCPU-rt0.usedCPU), "ratio"},
		"go.gc_cycles":             {ratio(rt1.cycles-rt0.cycles, downloads), "count"},
		"netrt.frames":             {ratio(frames, nt), "count"},
		"netrt.msg_frames":         {ratio(msgFrames, nt), "count"},
		"netrt.ack_frames":         {ratio(ackFrames, nt), "count"},
		"netrt.frame_bytes":        {ratio(frameBytes, nt), "bytes"},
		"netrt.batch_frames_mean":  {ratio(batchSum, float64(batchCount)), "count"},
		"netrt.backpressure":       {ratio(backpressure, nt), "count"},
		"netrt.dup_frames":         {ratio(dups, nt), "count"},
		"netrt.query_retries":      {ratio(retries, nt), "count"},
		"download.cpu_per_wall":    {ratio(float64(cpu), float64(wall)), "ratio"},
		"source.proofs":            {proofsPer, "count"},
		"source.fallbacks":         {ratio(fallback, nt), "count"},
		"source.verified_ratio":    {ratio(hits, proofs), "ratio"},
		"merkle.verify_us":         {verifyUS, "us"},
		"merkle.verify_share":      {ratio(merkleMs, ratio(ms(wall), float64(len(untraced)))), "ratio"},
		"download.unattributed_ms": {unattributed, "ms"},
		"trace.overhead_frac":      {ratio(p50t-p50u, p50u), "ratio"},
	}
	res := result{
		Correct:   failed == 0,
		Attempted: int(downloads),
		Failed:    failed,
		Metrics:   m,
	}
	fmt.Fprintf(log, "%s traced: %d download pairs in %.1f s, seed %d\n", w.name, len(untraced), time.Since(start).Seconds(), cfg.seed)
	printMetrics(log, perLayer, m)
	fmt.Fprintf(log, "  attribution per traced download (ms; untraced p50 %.3f, traced p50 %.3f):\n", p50u, p50t)
	for _, row := range []struct {
		layer string
		v     float64
	}{
		{"des (self)", desSelf},
		{"protocols", stepMs},
		{"merkle", merkleMs},
		{"unattributed", unattributed},
		{"download (traced)", tracedMean},
	} {
		fmt.Fprintf(log, "    %-20s %10.3f  %5.1f%%\n", row.layer, row.v, 100*ratio(row.v, tracedMean))
	}
	fmt.Fprintf(log, "    %-20s %10.3f\n", "trace.overhead_frac", m["trace.overhead_frac"].Value)
	return res, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// sumSeries adds up every series of a metric whose labels include match,
// returning the value sum and (for histograms) the observation count.
func sumSeries(snap *obs.Snapshot, name string, match map[string]string) (float64, uint64) {
	var v float64
	var c uint64
	for _, ms := range snap.Metrics {
		if ms.Name != name {
			continue
		}
	series:
		for _, s := range ms.Series {
			for k, want := range match {
				if s.Labels[k] != want {
					continue series
				}
			}
			v += s.Value
			c += s.Count
		}
	}
	return v, c
}

// histQuantile estimates a quantile of an unlabeled histogram by linear
// interpolation inside the bucket that holds it; 0 with no observations.
func histQuantile(snap *obs.Snapshot, name string, q float64) float64 {
	s, ok := snap.Series(name, nil)
	if !ok || s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var seen float64
	lower := 0.0
	for _, b := range s.Buckets {
		c := float64(b.Count)
		if seen+c >= rank && c > 0 {
			return lower + (b.UpperBound-lower)*(rank-seen)/c
		}
		seen += c
		lower = b.UpperBound
	}
	return lower // the quantile lies in the +Inf bucket
}

// merkleVerifyUS times one proof decode plus merkle.Verify at the
// workload's geometry: its L, the leaf size of its mirror plan (the
// default where it has none), and the span of a whole-array query, the
// one query each naive peer makes. These are the calls drbench's mverify
// rows make.
func merkleVerifyUS(w *workload, in *inputs) (float64, error) {
	plan, err := source.ParseMirrorPlan(w.opts.Mirrors)
	if err != nil {
		return 0, err
	}
	x := bitarray.FromBools(in.xs[0])
	tree := merkle.Build(x, plan.EffectiveLeafBits())
	root, p := tree.Root(), tree.Params()
	lo, hi := p.LeafSpan(0, w.opts.L-1)
	bits := x.Slice(lo*p.LeafBits, p.SpanBits(lo, hi))
	encoded := tree.Prove(lo, hi).AppendTo(nil)
	const batches, reps = 15, 20
	per := make([]float64, batches)
	for b := range per {
		t := time.Now()
		for r := 0; r < reps; r++ {
			pr, rest, ok := merkle.DecodeProof(encoded)
			if !ok || len(rest) != 0 || !merkle.Verify(root, p, lo, hi, bits, pr) {
				return 0, errors.New("merkle: genuine proof rejected")
			}
		}
		per[b] = float64(time.Since(t).Nanoseconds()) / 1e3 / reps
	}
	return quantile(per, 0.5), nil
}
