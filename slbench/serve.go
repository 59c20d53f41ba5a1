package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/internal/s1"
	"repro/internal/sexp"
	"repro/internal/snapshot"
)

const (
	// clients is serve-cold's closed-loop client count: one per core of
	// the 2-core hosts the bounds were measured on.
	clients = 2
	// sessions is session-hot's resident session count. One client
	// drives both, alternating between them: on those hosts two clients
	// of the dispatch loop spread about twice as much from run to run as
	// one, which leaves the second core to Go's collector.
	sessions = 2
	// serveOps is the serve-cold op list: one pass is about a second.
	serveOps = 800
	// sessionOps is the session-hot op list: 2 of each of the 18
	// (kernel, size) pairs per session.
	sessionOps = 72
	// sessionGCThreshold makes session machines collect (minor
	// collections every 4096 allocated words, as in the gc-cons kernel).
	sessionGCThreshold = 4096
	// sessionMaxHeap bounds session heaps, so the heap guard's full
	// collections stay armed.
	sessionMaxHeap = 1 << 21
)

func serveConfig() daemon.Config {
	return daemon.Config{
		Workers: clients, QueueDepth: 64, ReqTimeout: time.Minute,
		Prelude: preludeSrc, SchedMode: daemon.SchedOn,
		Flight: obs.NewFlight(obs.DefaultFlightSize),
	}
}

func readArgs(args []string) ([]sexp.Value, error) {
	out := make([]sexp.Value, len(args))
	for i, a := range args {
		v, err := sexp.ReadOne(a)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// preludeSnapshot compiles the prelude the way Server.Checkpoint does and
// snapshots it; gcThreshold > 0 arms generational collection in every
// machine restored from it.
func preludeSnapshot(opts core.Options, gcThreshold int64) (*snapshot.Snapshot, error) {
	sys := core.NewSystem(opts)
	if gcThreshold > 0 {
		sys.Machine.SetGCThreshold(gcThreshold)
	}
	if err := sys.LoadString(preludeSrc); err != nil {
		return nil, err
	}
	return sys.Snapshot()
}

// expectation is one op's oracle: the tree interpreter's printed value
// and the exact simulator work the compiled op performs.
type expectation struct {
	value          string
	cycles, instrs int64
}

// checkResponse reports whether op i's response is a 200 carrying the
// oracle's value.
func (o *outcome) checkResponse(i, status int, resp *daemon.Response, want string) bool {
	if status != 200 || !resp.OK {
		o.problem("op %d: %s", i, respErr(status, resp))
		return false
	}
	if resp.Value != want {
		o.problem("op %d: value %s, want %s", i, resp.Value, want)
		return false
	}
	return true
}

// runServeCold: POST /run, each request a fresh program in a fresh
// per-request system restored from the prelude snapshot.
func runServeCold(cfg config) (*outcome, error) {
	o := &outcome{}
	cl, setup, err := timeSetup(101, func() (*client, error) { return newClient(serveConfig()) })
	if err != nil {
		return nil, err
	}
	ops := genServeOps(cfg.seed, serveOps)
	bodies := make([][]byte, len(ops))
	for i, op := range ops {
		bodies[i] = mustJSON(daemon.Request{Source: op.source, Fn: op.fn, Args: op.args})
	}
	opts := sysOptions(serveConfig())
	snap, err := preludeSnapshot(opts, 0)
	if err != nil {
		return nil, err
	}

	// Oracle, before timing: each op's interpreted value, plus the cycles,
	// instructions and code the compiled program takes on the same
	// restored image the daemon uses.
	exp := make([]expectation, len(ops))
	var passCycles, passInstrs, codeWords int64
	ar := &s1.Arena{}
	for i, op := range ops {
		ro := opts
		ro.Arena = ar
		sys, err := core.RestoreSystem(ro, snap)
		if err != nil {
			return nil, err
		}
		code0 := len(sys.Machine.Code)
		if _, list := sys.EvalStringDiag(op.source); list.HasErrors() {
			return nil, fmt.Errorf("serve op %d does not compile: %v", i, list)
		}
		codeWords += int64(len(sys.Machine.Code) - code0)
		args, err := readArgs(op.args)
		if err != nil {
			return nil, err
		}
		mv, err := sys.Call(op.fn, args...)
		if err != nil {
			return nil, fmt.Errorf("serve op %d: %v", i, err)
		}
		iv, err := sys.Interpret(op.fn, args...)
		if err != nil {
			return nil, fmt.Errorf("serve op %d interpreted: %v", i, err)
		}
		exp[i] = expectation{value: sexp.Print(iv), cycles: sys.Machine.Stats.Cycles, instrs: sys.Machine.Stats.Instrs}
		if got := sexp.Print(mv); got != exp[i].value {
			o.problem("serve op %d: compiled %s, interpreted %s", i, got, exp[i].value)
		}
		passCycles += exp[i].cycles
		passInstrs += exp[i].instrs
		sys.Machine.ReleaseArena()
	}

	check := func(i, status int, resp *daemon.Response) bool {
		return o.checkResponse(i, status, resp, exp[i].value)
	}

	// Per pass: the daemon's own cycle histogram must account for exactly
	// the oracle's cycles, and every request must have restored the
	// prelude snapshot (the layer this workload exists to load).
	last := cl.prom()
	lastStats := cl.srv.Stats()
	var simCycles float64
	between := func(p int) error {
		now, st := cl.prom(), cl.srv.Stats()
		d := now["slcd_eval_cycles_sum"] - last["slcd_eval_cycles_sum"]
		if int64(d) != passCycles {
			o.problem("pass %d: daemon counted %.0f cycles, oracle %d", p, d, passCycles)
		}
		simCycles = d
		if d := st.SnapshotRestores - lastStats.SnapshotRestores; d != int64(len(ops)) {
			o.problem("coverage: pass %d restored %d snapshots for %d requests", p, d, len(ops))
		}
		last, lastStats = now, st
		return nil
	}

	if cfg.trace {
		// One client, so an op's handler time is not stretched by another
		// client's replay competing for the cores.
		var L layers
		var arenas sync.Pool
		prom0 := cl.prom()
		mem := startMem()
		l, err := passes(len(ops), 1, cfg.seconds, func(_, pass, i int) (time.Duration, time.Duration, bool) {
			s := sample{}
			status, resp, d := cl.call("/run", bodies[i])
			ok := check(i, status, resp)
			s["daemon.handler_ms"], s["trace.op_ms"] = ms(d), ms(d)
			if v := replayServe(bodies[i], snap, opts, &arenas, s); v != exp[i].value {
				o.problem("replay op %d: value %s, want %s", i, v, exp[i].value)
				ok = false
			}
			L.add(s)
			return d, 0, ok
		}, between)
		if err != nil {
			return nil, err
		}
		_, _, gcs := mem.finish(int64(len(l.lat)))
		prom1 := cl.prom()
		L.report(o, l.total(), runTotals(prom0, prom1, gcs))
		o.attempted, o.failed = int64(len(l.lat)), l.failed
		return o, nil
	}

	mem := startMem()
	l, err := passes(len(ops), clients, cfg.seconds, func(c, pass, i int) (time.Duration, time.Duration, bool) {
		status, resp, d := cl.call("/run", bodies[i])
		return d, 0, check(i, status, resp)
	}, between)
	if err != nil {
		return nil, err
	}
	o.report(l, 0.99, mem, float64(passInstrs), simCycles, float64(codeWords), setup)
	runtime.KeepAlive(cl)
	return o, nil
}

// runTotals are a traced run's whole-run layer counts: the scheduler's,
// read from the daemon's metrics, and Go's collections.
func runTotals(prom0, prom1 map[string]float64, gcs uint32) sample {
	return sample{
		"sched.wait_ms":  1000 * (prom1["slcd_sched_wait_seconds_sum"] - prom0["slcd_sched_wait_seconds_sum"]),
		"sched.preempts": prom1["slcd_sched_preempts_total"] - prom0["slcd_sched_preempts_total"],
		"go.gc_cycles":   float64(gcs),
	}
}

// replayServe replays one /run request through the layers the daemon
// calls: body decode, snapshot restore (machine boot included) on an
// arena from a sync.Pool, as the daemon recycles them, the compile
// pipeline, the call, and the response encode. It returns the printed
// call value.
func replayServe(body []byte, snap *snapshot.Snapshot, opts core.Options, arenas *sync.Pool, s sample) string {
	t := time.Now()
	var rq daemon.Request
	if err := json.Unmarshal(body, &rq); err != nil {
		return "decode: " + err.Error()
	}
	s["daemon.json_ms"] += ms(time.Since(t))
	ar, _ := arenas.Get().(*s1.Arena)
	if ar == nil {
		ar = &s1.Arena{}
	}
	opts.Arena = ar
	t = time.Now()
	sys, err := core.RestoreSystem(opts, snap)
	restore := time.Since(t)
	if err != nil {
		return "restore: " + err.Error()
	}
	t = time.Now()
	sys.Machine.ImageFingerprint()
	s["s1.fingerprint_ms"] += ms(time.Since(t))
	// The boot inside the restore is timed apart after the request, on
	// the same arena once the replayed request has handed it back: booting
	// first would warm the arena the restore then finds.
	defer func() {
		released := sys.Machine.ReleaseArena()
		t := time.Now()
		core.NewSystem(opts).Machine.ReleaseArena()
		boot := time.Since(t)
		s["core.boot_ms"] += ms(boot)
		s["snapshot.restore_ms"] += ms(restore - boot)
		if released {
			arenas.Put(ar)
		}
	}()
	watchMachine(sys.Machine, s)
	gc0, tier0 := sys.Machine.GCMeters, sys.Machine.TierStats()
	if _, bad := replayLoad(sys, rq.Source, s); bad {
		return "load failed"
	}
	resp := daemon.Response{OK: true}
	for name := range sys.Defs {
		resp.Defs = append(resp.Defs, name)
	}
	args, err := readArgs(rq.Args)
	if err != nil {
		return err.Error()
	}
	t = time.Now()
	v, err := sys.Call(rq.Fn, args...)
	s["s1.run_ms"] += ms(time.Since(t))
	if err != nil {
		return err.Error()
	}
	machineCounts(sys.Machine, gc0, tier0, s)
	resp.Value = sexp.Print(v)
	t = time.Now()
	mustJSON(&resp)
	s["daemon.json_ms"] += ms(time.Since(t))
	return resp.Value
}

// hotSetup is session-hot's program start-up product.
type hotSetup struct {
	cl       *client
	sessions []string
	traces   []string
}

// runSessionHot: two resident sessions holding the paper kernels, driven
// by one client; op i is a /run call into session i mod 2.
func runSessionHot(cfg config) (*outcome, error) {
	o := &outcome{}
	dcfg := func(st *snapshot.Store) daemon.Config {
		c := serveConfig()
		c.MaxHeapWords = sessionMaxHeap
		c.Snapshots = st
		return c
	}
	opts := sysOptions(dcfg(nil))
	snap, err := preludeSnapshot(opts, sessionGCThreshold)
	if err != nil {
		return nil, err
	}
	// Provision one warm-boot store per setup repetition: the boot
	// snapshot carries the GC threshold, so every session machine the
	// daemon restores from it collects generationally.
	const reps = 15
	stores := make([]*snapshot.Store, reps)
	for i := range stores {
		dir, err := os.MkdirTemp("", "slbench-snap-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if stores[i], err = snapshot.OpenStore(dir, nil); err != nil {
			return nil, err
		}
		if err := stores[i].Save("boot", snap); err != nil {
			return nil, err
		}
	}
	rep := 0
	hs, setup, err := timeSetup(reps, func() (*hotSetup, error) {
		cl, err := newClient(dcfg(stores[rep]))
		rep++
		if err != nil {
			return nil, err
		}
		h := &hotSetup{cl: cl}
		for c := 0; c < sessions; c++ {
			status, resp, _ := cl.call("/session", mustJSON(daemon.Request{Source: kernelSrc, Tenant: fmt.Sprint("t", c)}))
			if status != 200 || !resp.OK {
				return nil, fmt.Errorf("session create: %s", respErr(status, resp))
			}
			h.sessions = append(h.sessions, resp.Session)
			h.traces = append(h.traces, resp.TraceID)
		}
		return h, nil
	})
	if err != nil {
		return nil, err
	}
	cl := hs.cl
	if st := cl.srv.Stats(); st.SnapshotRestores < int64(sessions) {
		o.problem("coverage: sessions were not restored from the boot snapshot")
	}
	calls := genKernelCalls(cfg.seed, sessionOps, sessions)
	bodies := make([][]byte, len(calls))
	for i, k := range calls {
		bodies[i] = mustJSON(daemon.Request{Session: hs.sessions[i%sessions], Fn: k.fn,
			Args: []string{fmt.Sprint(k.arg)}, Tenant: fmt.Sprint("t", i%sessions)})
	}

	// Oracle: a side session built the way the daemon builds one; every
	// distinct call's compiled value is checked against the interpreter.
	newSide := func() (*core.System, int, error) {
		sys, err := core.RestoreSystem(opts, snap)
		if err != nil {
			return nil, 0, err
		}
		code0 := len(sys.Machine.Code)
		if _, list := sys.EvalStringDiag(kernelSrc); list.HasErrors() {
			return nil, 0, fmt.Errorf("kernels do not compile: %v", list)
		}
		return sys, len(sys.Machine.Code) - code0, nil
	}
	side, codeWords, err := newSide()
	if err != nil {
		return nil, err
	}
	memo := map[kernelCall]expectation{}
	exp := make([]expectation, len(calls))
	var passCycles, passInstrs int64
	for i, k := range calls {
		e, ok := memo[k]
		if !ok {
			side.Machine.ResetStats()
			mv, err := side.Call(k.fn, sexp.Fixnum(int64(k.arg)))
			if err != nil {
				return nil, fmt.Errorf("%s %d: %v", k.fn, k.arg, err)
			}
			e = expectation{value: sexp.Print(mv), cycles: side.Machine.Stats.Cycles, instrs: side.Machine.Stats.Instrs}
			iv, err := side.Interpret(k.fn, sexp.Fixnum(int64(k.arg)))
			if err != nil {
				return nil, fmt.Errorf("%s %d interpreted: %v", k.fn, k.arg, err)
			}
			if got := sexp.Print(iv); got != e.value {
				o.problem("%s %d: compiled %s, interpreted %s", k.fn, k.arg, e.value, got)
			}
			memo[k] = e
		}
		exp[i] = e
		passCycles += e.cycles
		passInstrs += e.instrs
	}

	check := func(i, status int, resp *daemon.Response) bool {
		return o.checkResponse(i, status, resp, exp[i].value)
	}

	// Per pass: exact cycles, no boots; over the run, the sessions must
	// have collected (minor GCs) and promoted hot functions.
	last, lastStats := cl.prom(), cl.srv.Stats()
	var simCycles float64
	var lastSeq uint64
	for _, ev := range cl.srv.Flight().Snapshot(obs.Filter{}) {
		lastSeq = max(lastSeq, ev.Seq)
	}
	var minors, promotions int64
	between := func(p int) error {
		now, st := cl.prom(), cl.srv.Stats()
		d := now["slcd_eval_cycles_sum"] - last["slcd_eval_cycles_sum"]
		if int64(d) != passCycles {
			o.problem("pass %d: daemon counted %.0f cycles, oracle %d", p, d, passCycles)
		}
		simCycles = d
		if st.SnapshotRestores != lastStats.SnapshotRestores {
			o.problem("coverage: pass %d booted %d machines", p, st.SnapshotRestores-lastStats.SnapshotRestores)
		}
		minors += st.GCMinorCollections - lastStats.GCMinorCollections
		for _, ev := range cl.srv.Flight().Snapshot(obs.Filter{Kind: obs.EvTierPromote}) {
			if ev.Seq > lastSeq && (ev.Trace == hs.traces[0] || ev.Trace == hs.traces[1]) {
				promotions++
			}
		}
		for _, ev := range cl.srv.Flight().Snapshot(obs.Filter{Max: 1}) {
			lastSeq = ev.Seq
		}
		last, lastStats = now, st
		return nil
	}
	coverage := func() {
		if minors == 0 {
			o.problem("coverage: no minor collections in the sessions")
		}
		if promotions == 0 {
			o.problem("coverage: no tier promotions in the sessions")
		}
	}

	if cfg.trace {
		// Side sessions mirror the daemon's sessions op for op.
		sides := make([]*core.System, sessions)
		for c := range sides {
			if sides[c], _, err = newSide(); err != nil {
				return nil, err
			}
		}
		// One client runs every session's ops in order, as untraced.
		var L layers
		prom0 := cl.prom()
		mem := startMem()
		l, err := passes(len(calls), 1, cfg.seconds, func(_, pass, i int) (time.Duration, time.Duration, bool) {
			s := sample{}
			status, resp, d := cl.call("/run", bodies[i])
			ok := check(i, status, resp)
			s["daemon.handler_ms"], s["trace.op_ms"] = ms(d), ms(d)
			if v := replaySession(bodies[i], sides[i%sessions], s); v != exp[i].value {
				o.problem("replay op %d: value %s, want %s", i, v, exp[i].value)
				ok = false
			}
			L.add(s)
			return d, 0, ok
		}, between)
		if err != nil {
			return nil, err
		}
		_, _, gcs := mem.finish(int64(len(l.lat)))
		prom1 := cl.prom()
		L.report(o, l.total(), runTotals(prom0, prom1, gcs))
		coverage()
		o.attempted, o.failed = int64(len(l.lat)), l.failed
		return o, nil
	}

	mem := startMem()
	l, err := passes(len(calls), 1, cfg.seconds, func(_, _, i int) (time.Duration, time.Duration, bool) {
		status, resp, d := cl.call("/run", bodies[i])
		return d, 0, check(i, status, resp)
	}, between)
	if err != nil {
		return nil, err
	}
	coverage()
	// About 400 ops a run, so the tail is p95.
	o.report(l, 0.95, mem, float64(passInstrs), simCycles, float64(codeWords), setup)
	runtime.KeepAlive(hs)
	return o, nil
}

// replaySession replays one session /run through the layers the daemon
// calls on a resident system: decode, the (empty) source load, the call,
// parking the machine stack, and the response encode.
func replaySession(body []byte, sys *core.System, s sample) string {
	t := time.Now()
	var rq daemon.Request
	if err := json.Unmarshal(body, &rq); err != nil {
		return "decode: " + err.Error()
	}
	s["daemon.json_ms"] += ms(time.Since(t))
	sys.Machine.ClearInterrupt()
	sys.Machine.ResetStats()
	watchMachine(sys.Machine, s)
	gc0, tier0 := sys.Machine.GCMeters, sys.Machine.TierStats()
	replayLoad(sys, rq.Source, s)
	args, err := readArgs(rq.Args)
	if err != nil {
		return err.Error()
	}
	t = time.Now()
	v, err := sys.Call(rq.Fn, args...)
	s["s1.run_ms"] += ms(time.Since(t))
	if err != nil {
		return err.Error()
	}
	machineCounts(sys.Machine, gc0, tier0, s)
	t = time.Now()
	sys.Machine.ParkStack()
	s["s1.park_ms"] += ms(time.Since(t))
	resp := daemon.Response{OK: true, Session: rq.Session, Value: sexp.Print(v)}
	for name := range sys.Defs {
		resp.Defs = append(resp.Defs, name)
	}
	t = time.Now()
	mustJSON(&resp)
	s["daemon.json_ms"] += ms(time.Since(t))
	return resp.Value
}
