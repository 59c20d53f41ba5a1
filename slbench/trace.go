package main

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/s1"
	"repro/internal/sexp"
)

// The traced run (--trace 1) splits each op's time into layers named
// after the repo's modules. It does not instrument the program: each op
// is first run exactly as in the end-to-end run (ServeHTTP, or a load),
// then replayed directly through the layers' public functions in the
// order the daemon or slc calls them, timing each call. Replays are
// interleaved op by op, so host drift affects the op and its replay
// alike.

// layerNames are every per-layer metric, in report order. Each workload
// reports all of them; a layer the workload bypasses reports 0.
var layerNames = []struct{ name, unit string }{
	{"trace.op_ms", "ms"},              // the op the layers must add up to
	{"trace.layer_sum_ms", "ms"},       // sum of the replayed layers
	{"trace.unexplained_frac", "frac"}, // (op - layer sum) / op
	{"trace.req_per_s", "1/s"},         // op rate with replay overhead
	{"daemon.handler_ms", "ms"},
	{"daemon.other_ms", "ms"},
	{"daemon.json_ms", "ms"},
	{"sched.wait_ms", "ms"},
	{"sched.preempts", "count"},
	{"snapshot.restore_ms", "ms"},
	{"s1.fingerprint_ms", "ms"},
	{"core.boot_ms", "ms"},
	{"core.load_other_ms", "ms"},
	{"sexp.read_ms", "ms"},
	{"convert.ms", "ms"},
	{"opt.ms", "ms"},
	{"analysis.ms", "ms"},
	{"binding.ms", "ms"},
	{"rep.ms", "ms"},
	{"pdl.ms", "ms"},
	{"codegen.emit_ms", "ms"},
	{"opt.nodes_out", "count"},
	{"opt.rule_fires", "count"},
	{"codegen.static_movs", "count"},
	{"compilecache.hit_frac", "frac"},
	{"compilecache.probe_ms", "ms"},
	{"compilecache.replay_ms", "ms"},
	{"s1.run_ms", "ms"},
	{"s1.park_ms", "ms"},
	{"s1.instrs", "count"},
	{"s1.cycles", "count"},
	{"s1.dyn_movs", "count"},
	{"s1.flonum_allocs", "count"},
	{"s1.gc_minor", "count"},
	{"s1.gc_full", "count"},
	{"s1.gc_pause_ms", "ms"},
	{"s1.tier_promotions", "count"},
	{"s1.tier_cache_fills", "count"},
	{"go.gc_cycles", "count"},
}

// timedLayers are the layers that partition an op's time; their sum is
// compared with the op's measured time.
var timedLayers = []string{
	"sched.wait_ms", "snapshot.restore_ms", "core.boot_ms", "core.load_other_ms",
	"sexp.read_ms", "convert.ms", "opt.ms", "analysis.ms", "binding.ms", "rep.ms",
	"pdl.ms", "codegen.emit_ms", "compilecache.probe_ms", "compilecache.replay_ms",
	"s1.run_ms", "s1.park_ms", "daemon.json_ms",
}

// phaseLayer maps core's compile spans to layers. disk-probe spans nest
// inside cache-probe and disk-store work happens inside emit, so neither
// is listed.
var phaseLayer = map[string]string{
	"read": "sexp.read_ms", "convert": "convert.ms",
	"optimize": "opt.ms", "cse": "opt.ms",
	"analysis": "analysis.ms", "binding": "binding.ms", "rep": "rep.ms", "pdl": "pdl.ms",
	"emit":        "codegen.emit_ms",
	"cache-probe": "compilecache.probe_ms", "disk-replay": "compilecache.replay_ms",
}

// sample is one op's layer figures.
type sample map[string]float64

// layers accumulates samples from concurrent clients.
type layers struct {
	mu  sync.Mutex
	sum sample
	ops int64
}

func (l *layers) add(s sample) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sum == nil {
		l.sum = sample{}
	}
	for k, v := range s {
		l.sum[k] += v
	}
	l.ops++
}

// report writes the per-op means, the derived sums, and the op rate.
// totals are whole-run counts (scheduler, Go GC), divided by ops here.
func (l *layers) report(o *outcome, wall time.Duration, totals sample) {
	n := float64(l.ops)
	if n == 0 {
		n = 1
	}
	mean := sample{}
	for k, v := range l.sum {
		mean[k] = v / n
	}
	for k, v := range totals {
		mean[k] += v / n
	}
	sum := 0.0
	for _, k := range timedLayers {
		sum += mean[k]
	}
	mean["trace.layer_sum_ms"] = sum
	if op := mean["trace.op_ms"]; op > 0 {
		mean["trace.unexplained_frac"] = (op - sum) / op
	}
	if h := mean["daemon.handler_ms"]; h > 0 {
		// Everything in the handler outside the replayed layers below it:
		// mux, JSON, session claim, span and flight bookkeeping.
		mean["daemon.other_ms"] = h - (sum - mean["daemon.json_ms"])
	}
	mean["trace.req_per_s"] = float64(l.ops) / wall.Seconds()
	for _, ln := range layerNames {
		o.set(ln.name, mean[ln.name], ln.unit)
	}
}

// replayLoad runs src through sys.EvalStringDiag with a fresh recorder
// attached and splits its wall time into compile phases. It returns the
// load's value and whether it had errors.
func replayLoad(sys *core.System, src string, s sample) (string, bool) {
	rec := obs.NewRecorder()
	sys.Obs = rec
	code0 := len(sys.Machine.Code)
	t0 := time.Now()
	v, list := sys.EvalStringDiag(src)
	wall := ms(time.Since(t0))
	sys.Obs = nil
	spans := 0.0
	for _, sp := range rec.Spans() {
		name, ok := phaseLayer[sp.Phase]
		if !ok {
			continue
		}
		d := ms(sp.End - sp.Start)
		s[name] += d
		spans += d
		if sp.Phase == "optimize" {
			s["opt.nodes_out"] += float64(sp.Nodes)
		}
	}
	s["core.load_other_ms"] += wall - spans
	s["opt.rule_fires"] += float64(len(rec.Rules()))
	s["codegen.static_movs"] += float64(s1.CountMOVs(sys.Machine.Code, code0, len(sys.Machine.Code)))
	out := ""
	if v != nil {
		out = sexp.Print(v)
	}
	return out, list.HasErrors()
}

// watchMachine counts GC pauses on m into s (the machine meters count
// collections; only the event hook sees pause times).
func watchMachine(m *s1.Machine, s sample) {
	m.OnEvent = func(kind, unit string, d time.Duration) {
		switch kind {
		case obs.EvGCPause, obs.EvGCMinorPause:
			s["s1.gc_pause_ms"] += ms(d)
		}
	}
}

// machineCounts adds the machine meters accumulated since stats were last
// reset, and the GC and tier activity since gc0/tier0.
func machineCounts(m *s1.Machine, gc0 s1.GCStats, tier0 s1.TierStats, s sample) {
	st := m.Stats
	s["s1.instrs"] += float64(st.Instrs)
	s["s1.cycles"] += float64(st.Cycles)
	s["s1.dyn_movs"] += float64(st.Movs)
	s["s1.flonum_allocs"] += float64(st.FlonumAllocs)
	s["s1.gc_minor"] += float64(m.GCMeters.MinorCollections - gc0.MinorCollections)
	s["s1.gc_full"] += float64(m.GCMeters.Collections - gc0.Collections)
	ts := m.TierStats()
	s["s1.tier_promotions"] += float64(ts.Promotions - tier0.Promotions)
	s["s1.tier_cache_fills"] += float64(ts.CacheFills - tier0.CacheFills)
}
