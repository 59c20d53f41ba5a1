package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/compilecache"
	"repro/internal/core"
	"repro/internal/obs"
)

const (
	// compile-bulk's fixed input: bulkFiles files of bulkTemplates
	// template instances (200 defuns) each.
	bulkFiles     = 8
	bulkTemplates = 160
	// compile-warm: warmBases cached base files of warmTemplates template
	// instances (120 defuns); each of warmOps loads appends warmTail novel
	// instances to one of them, so stores (and their fsyncs) are a small
	// share of a load.
	warmBases     = 4
	warmTemplates = 96
	warmOps       = 40
	warmTail      = 1
)

// baseCodeWords is the code a fresh machine holds before any load (the
// runtime's own routines), subtracted from code_words.
var baseCodeWords = len(core.NewSystem(core.Options{}).Machine.Code)

// loadFacts is what one load produced, read off its system.
type loadFacts struct {
	fingerprint    string
	codeWords      int64
	cycles, instrs int64
	hits, misses   int64
	diags          int
}

func facts(sys *core.System, diags int) loadFacts {
	st := sys.Stats()
	return loadFacts{
		fingerprint: sys.Machine.ImageFingerprint(),
		codeWords:   int64(len(sys.Machine.Code) - baseCodeWords),
		cycles:      st.Cycles, instrs: st.Instrs,
		hits: st.CompileCacheHits, misses: st.CompileCacheMisses,
		diags: diags,
	}
}

// coldFacts is the oracle: a sequential, cache-less compile of src.
func coldFacts(src string) (loadFacts, error) {
	sys := core.NewSystem(core.Options{Jobs: 1})
	list := sys.LoadStringDiag(src)
	if list.Len() > 0 {
		return loadFacts{}, fmt.Errorf("input does not compile cleanly: %v", list)
	}
	return facts(sys, 0), nil
}

// compileRun holds what the compile workloads check each load against:
// the oracle's facts per input.
type compileRun struct {
	o    *outcome
	last *core.System // the latest image, live when the heap is measured
	want []loadFacts
}

func (r *compileRun) check(i int, got loadFacts) bool {
	w := r.want[i]
	switch {
	case got.diags > 0:
		r.o.problem("load %d: %d diagnostics", i, got.diags)
	case got.fingerprint != w.fingerprint:
		r.o.problem("load %d: image %s, cold compile %s", i, got.fingerprint, w.fingerprint)
	case got.codeWords != w.codeWords || got.cycles != w.cycles:
		r.o.problem("load %d: %d words %d cycles, cold compile %d words %d cycles", i,
			got.codeWords, got.cycles, w.codeWords, w.cycles)
	default:
		return true
	}
	return false
}

// report sets the end-to-end metrics of a compile workload.
func (r *compileRun) report(l *loop, mem *memDelta, setup float64) {
	var instrs, cycles, words int64
	for _, w := range r.want {
		instrs += w.instrs
		cycles += w.cycles
		words += w.codeWords
	}
	r.o.report(l, 0.90, mem, float64(instrs), float64(cycles), float64(words), setup)
	runtime.KeepAlive(r.last)
}

// runCompileBulk: the slc path. Each op is a fresh core.System with the
// parallel middle end loading one 200-defun file; no cache, no run.
func runCompileBulk(cfg config) (*outcome, error) {
	o := &outcome{}
	jobs := runtime.GOMAXPROCS(0)
	_, setup, err := timeSetup(201, func() (*core.System, error) {
		return core.NewSystem(core.Options{Jobs: jobs}), nil
	})
	if err != nil {
		return nil, err
	}
	files := genBulkFiles(cfg.seed, bulkFiles, bulkTemplates)
	r := &compileRun{o: o}
	for _, f := range files {
		w, err := coldFacts(f.source)
		if err != nil {
			return nil, err
		}
		r.want = append(r.want, w)
	}

	if cfg.trace {
		// The traced op is a sequential load with a phase recorder attached
		// (as every daemon request has), so its replay's spans partition
		// it: under the parallel middle end they would overlap in time.
		var L layers
		mem := startMem()
		l, err := passes(len(files), 1, cfg.seconds, func(_, _, i int) (time.Duration, time.Duration, bool) {
			s := sample{}
			t0 := time.Now()
			sys := core.NewSystem(core.Options{Jobs: 1, Obs: obs.NewRecorder()})
			list := sys.LoadStringDiag(files[i].source)
			d := time.Since(t0)
			ok := r.check(i, facts(sys, list.Len()))
			s["trace.op_ms"] = ms(d)
			ok = replayCompile(files[i].source, core.Options{Jobs: 1}, r.want[i], s) && ok
			L.add(s)
			return d, 0, ok
		}, nil)
		if err != nil {
			return nil, err
		}
		_, _, gcs := mem.finish(int64(len(l.lat)))
		L.report(o, l.total(), sample{"go.gc_cycles": float64(gcs)})
		o.attempted, o.failed = int64(len(l.lat)), l.failed
		return o, nil
	}

	mem := startMem()
	l, err := passes(len(files), 1, cfg.seconds, func(_, _, i int) (time.Duration, time.Duration, bool) {
		t0 := time.Now()
		sys := core.NewSystem(core.Options{Jobs: jobs})
		list := sys.LoadStringDiag(files[i].source)
		d := time.Since(t0)
		f := facts(sys, list.Len())
		r.last = sys
		ok := r.check(i, f)
		if f.hits+f.misses != 0 {
			o.problem("coverage: load %d probed the compile cache", i)
			ok = false
		}
		return d, time.Since(t0) - d, ok
	}, nil)
	if err != nil {
		return nil, err
	}
	r.report(l, mem, setup)
	return o, nil
}

// replayCompile replays one load with a phase recorder attached: machine
// boot, then the load split into its compile phases. It checks the
// replayed image against want.
func replayCompile(src string, opts core.Options, want loadFacts, s sample) bool {
	t := time.Now()
	sys := core.NewSystem(opts)
	s["core.boot_ms"] += ms(time.Since(t))
	watchMachine(sys.Machine, s)
	gc0, tier0 := sys.Machine.GCMeters, sys.Machine.TierStats()
	_, bad := replayLoad(sys, src, s)
	machineCounts(sys.Machine, gc0, tier0, s)
	st := sys.Stats()
	if n := st.CompileCacheHits + st.CompileCacheMisses; n > 0 {
		s["compilecache.hit_frac"] += float64(st.CompileCacheHits) / float64(n)
	}
	return !bad && sys.Machine.ImageFingerprint() == want.fingerprint
}

// warmCache is one compile-warm cache directory holding the base files.
type warmCache struct {
	dir  string
	disk *compilecache.Disk
}

// cloneDir copies a warmed cache's entries into a fresh directory, so
// every pass starts from the same cache state: bases present, tails
// absent.
func cloneDir(from, parent string) (string, error) {
	dir, err := os.MkdirTemp(parent, "cache-")
	if err != nil {
		return "", err
	}
	ents, err := filepath.Glob(filepath.Join(from, "*.e"))
	if err != nil {
		return "", err
	}
	for _, e := range ents {
		if err := copyFile(e, filepath.Join(dir, filepath.Base(e))); err != nil {
			return "", err
		}
	}
	return dir, nil
}

func cloneCache(from, parent string) (*warmCache, error) {
	dir, err := cloneDir(from, parent)
	if err != nil {
		return nil, err
	}
	d, err := compilecache.OpenDisk(dir, nil)
	if err != nil {
		return nil, err
	}
	return &warmCache{dir: dir, disk: d}, nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// runCompileWarm: the slc -cache-dir edit-recompile loop. Each op is a
// fresh core.System on a shared durable cache, loading a cached base
// file with novel defuns appended: the base replays from disk, the tail
// misses, compiles and is stored.
func runCompileWarm(cfg config) (*outcome, error) {
	o := &outcome{}
	root, err := os.MkdirTemp("", "slbench-warm-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	base, ops := genWarm(cfg.seed, warmBases, warmTemplates, warmOps, warmTail)

	// The cache is warmed once, untimed: the warm is fsync-bound, so its
	// cost follows the host's disk rather than the program. Set-up is what
	// slc -cache-dir pays at start on a warm cache: OpenDisk, whose
	// recovery scan reads and checksums every entry.
	warmDir, err := os.MkdirTemp(root, "warm-")
	if err != nil {
		return nil, err
	}
	d, err := compilecache.OpenDisk(warmDir, nil)
	if err != nil {
		return nil, err
	}
	for _, b := range base {
		sys := core.NewSystem(core.Options{DiskCache: d})
		if list := sys.LoadStringDiag(b.source); list.Len() > 0 {
			return nil, fmt.Errorf("warm-up load: %v", list)
		}
	}
	d.Close()
	const reps = 15
	dirs := make([]string, reps)
	for i := range dirs {
		if dirs[i], err = cloneDir(warmDir, root); err != nil {
			return nil, err
		}
	}
	rep := 0
	_, setup, err := timeSetup(reps, func() (*compilecache.Disk, error) {
		d, err := compilecache.OpenDisk(dirs[rep], nil)
		rep++
		if err != nil {
			return nil, err
		}
		return d, d.Close()
	})
	if err != nil {
		return nil, err
	}

	r := &compileRun{o: o}
	for _, op := range ops {
		w, err := coldFacts(op.source)
		if err != nil {
			return nil, err
		}
		r.want = append(r.want, w)
	}
	var caches []*warmCache
	fresh := func() error {
		for _, c := range caches {
			c.disk.Close()
			os.RemoveAll(c.dir)
		}
		caches = caches[:0]
		n := 1
		if cfg.trace {
			n = 2 // the replay needs its own copy, or its tails would hit
		}
		for i := 0; i < n; i++ {
			c, err := cloneCache(warmDir, root)
			if err != nil {
				return err
			}
			caches = append(caches, c)
		}
		return nil
	}
	if err := fresh(); err != nil {
		return nil, err
	}
	defer func() {
		for _, c := range caches {
			c.disk.Close()
		}
	}()
	// The hit share is designed: every base defun replays, every tail
	// defun misses.
	checkHits := func(i int, f loadFacts) bool {
		op := ops[i]
		if f.hits != int64(op.defuns-op.novel) || f.misses != int64(op.novel) {
			o.problem("coverage: load %d had %d hits %d misses, designed %d/%d", i,
				f.hits, f.misses, op.defuns-op.novel, op.novel)
			return false
		}
		return true
	}

	if cfg.trace {
		var L layers
		mem := startMem()
		l, err := passes(len(ops), 1, cfg.seconds, func(_, _, i int) (time.Duration, time.Duration, bool) {
			s := sample{}
			t0 := time.Now()
			sys := core.NewSystem(core.Options{Jobs: 1, DiskCache: caches[0].disk, Obs: obs.NewRecorder()})
			list := sys.LoadStringDiag(ops[i].source)
			d := time.Since(t0)
			f := facts(sys, list.Len())
			ok := r.check(i, f) && checkHits(i, f)
			s["trace.op_ms"] = ms(d)
			ok = replayCompile(ops[i].source, core.Options{Jobs: 1, DiskCache: caches[1].disk}, r.want[i], s) && ok
			L.add(s)
			return d, 0, ok
		}, func(int) error { return fresh() })
		if err != nil {
			return nil, err
		}
		_, _, gcs := mem.finish(int64(len(l.lat)))
		L.report(o, l.total(), sample{"go.gc_cycles": float64(gcs)})
		o.attempted, o.failed = int64(len(l.lat)), l.failed
		return o, nil
	}

	mem := startMem()
	l, err := passes(len(ops), 1, cfg.seconds, func(_, _, i int) (time.Duration, time.Duration, bool) {
		t0 := time.Now()
		sys := core.NewSystem(core.Options{DiskCache: caches[0].disk})
		list := sys.LoadStringDiag(ops[i].source)
		d := time.Since(t0)
		f := facts(sys, list.Len())
		r.last = sys
		ok := r.check(i, f) && checkHits(i, f)
		return d, time.Since(t0) - d, ok
	}, func(int) error { return fresh() })
	if err != nil {
		return nil, err
	}
	r.report(l, mem, setup)
	return o, nil
}
