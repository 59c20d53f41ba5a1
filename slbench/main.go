// Command slbench is the repository's end-to-end benchmark. It drives the
// compiler and the slcd daemon in-process through their public entry
// points (daemon.Server.ServeHTTP, core.System, compilecache.OpenDisk) on
// four seeded workloads, checks every op's output, and prints one JSON
// result line. See README.md for the workloads and metrics.
//
//	slbench --workload serve-cold --seed 1 --seconds 10 --trace 0
//	slbench --workload compile-bulk --seed 1 --seconds 5 --repeat 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's parameters.
type config struct {
	seed    int64
	seconds float64
	trace   bool
}

// outcome is what a workload run produces. problems lists correctness and
// layer-coverage failures; any entry makes the result incorrect.
type outcome struct {
	attempted, failed int64
	metrics           map[string]metric

	mu       sync.Mutex // clients report problems concurrently
	problems []string
}

// problem records a failed check, keeping the first few messages.
func (o *outcome) problem(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	} else if len(o.problems) == 10 {
		o.problems = append(o.problems, "more check failures omitted")
	}
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

var workloads = map[string]func(config) (*outcome, error){
	"serve-cold":   runServeCold,
	"session-hot":  runSessionHot,
	"compile-bulk": runCompileBulk,
	"compile-warm": runCompileWarm,
}

func main() {
	name := flag.String("workload", "", "serve-cold | session-hot | compile-bulk | compile-warm")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced per-layer replay instead of end-to-end metrics")
	repeat := flag.Int("repeat", 0, "run the workload N times (seeds seed..seed+N-1) in child processes and print the spread per metric")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "slbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatMode(*name, *seed, *seconds, *trace, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "slbench:", err)
			os.Exit(1)
		}
		return
	}
	out, err := run(config{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "slbench:", err)
		os.Exit(1)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "slbench: check failed:", p)
	}
	line, err := json.Marshal(result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "slbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// repeatMode runs the workload n times, each in a fresh child process
// with its own seed, and prints min / quartiles / max per metric plus the
// environment, the data the BENCHMARK.json bounds are set from.
func repeatMode(name string, seed int64, seconds float64, trace, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	vals := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "--workload", name,
			"--seed", strconv.FormatInt(seed+int64(i), 10),
			"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64),
			"--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		if !res.Correct {
			return fmt.Errorf("run %d (seed %d): incorrect result", i, seed+int64(i))
		}
		for k, m := range res.Metrics {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "model name") {
				cpu = strings.TrimSpace(l[strings.Index(l, ":")+1:])
				break
			}
		}
	}
	fmt.Printf("workload %s, %d runs of %gs, seeds %d..%d\n", name, n, seconds, seed, seed+int64(n)-1)
	fmt.Printf("nproc %d, GOMAXPROCS %d, %s, cpu %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu)
	fmt.Printf("%-26s %-6s %12s %12s %12s %12s %12s %8s\n", "metric", "unit", "min", "q1", "median", "q3", "max", "iqr/med")
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := append([]float64(nil), vals[k]...)
		sort.Float64s(v)
		q1, med, q3 := quartiles(v)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-26s %-6s %12.4g %12.4g %12.4g %12.4g %12.4g %8.3f\n",
			k, units[k], v[0], q1, med, q3, v[len(v)-1], spread)
	}
	return nil
}

// quartiles returns Python's statistics.quantiles(v, n=4) (exclusive
// method) for sorted v.
func quartiles(v []float64) (q1, q2, q3 float64) {
	n := len(v)
	if n == 1 {
		return v[0], v[0], v[0]
	}
	q := func(k int) float64 {
		m := k * (n + 1)
		j := m / 4
		delta := float64(m%4) / 4
		if j < 1 {
			j, delta = 1, 0
		}
		if j >= n {
			j, delta = n-1, 1
		}
		return v[j-1] + (v[j]-v[j-1])*delta
	}
	return q(1), q(2), q(3)
}

// percentile is the linearly interpolated p-quantile (0..1) of sorted v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	pos := p * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[lo] + (v[lo+1]-v[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memDelta brackets a measured region with runtime.MemStats reads.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

// finish reports Go allocations and KB allocated per op over the region,
// and the GC cycles it ran.
func (m *memDelta) finish(ops int64) (allocs, kb float64, gcs uint32) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if ops < 1 {
		ops = 1
	}
	return float64(after.Mallocs-m.before.Mallocs) / float64(ops),
		float64(after.TotalAlloc-m.before.TotalAlloc) / 1024 / float64(ops),
		after.NumGC - m.before.NumGC
}

// liveHeapMB is the live Go heap after two forced collections (sync.Pool
// contents survive the first).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timeSetup runs setup reps times and returns the last setup's product
// and the median wall seconds. Repetitions follow one another without a
// forced collection, so they reuse the heap as a long-lived process
// would instead of each paying fresh page faults.
func timeSetup[T any](reps int, setup func() (T, error)) (T, float64, error) {
	var last T
	secs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		v, err := setup()
		secs = append(secs, time.Since(t0).Seconds())
		if err != nil {
			return last, 0, err
		}
		last = v
	}
	return last, median(secs), nil
}

// loop is the result of a measured closed loop.
type loop struct {
	ops    int               // ops per pass
	lat    []float64         // every op's latency in ms, sorted
	failed int64             // ops that failed their check
	walls  []time.Duration   // each pass's measured wall time
	busy   [][]time.Duration // busy[c][p]: client c's measured time in pass p
}

// total is the measured wall time of all passes.
func (l *loop) total() time.Duration {
	var t time.Duration
	for _, w := range l.walls {
		t += w
	}
	return t
}

// rate is the loop's throughput in ops per second: each client's ops per
// pass over its median busy time per pass, summed over the clients. A
// client is not charged for waiting at the barrier for a slower one, and
// one pass slowed by a noisy neighbour on the host does not move the
// median.
func (l *loop) rate() float64 {
	r := 0.0
	for c, b := range l.busy {
		ops := (l.ops - c + len(l.busy) - 1) / len(l.busy)
		ws := make([]float64, len(b))
		for i, w := range b {
			ws[i] = w.Seconds()
		}
		r += float64(ops) / median(ws)
	}
	return r
}

// passes runs an n-op list in whole passes until seconds of measured time
// have elapsed (at least one pass). Client c runs ops c, c+clients, ... of
// every pass; a barrier separates passes so between() sees a quiescent
// program. do reports one op's latency, any time it spent on unmeasured
// work (checks), and whether the op succeeded.
func passes(n, clients int, seconds float64, do func(c, pass, i int) (lat, untimed time.Duration, ok bool),
	between func(pass int) error) (*loop, error) {
	res := &loop{ops: n, busy: make([][]time.Duration, clients)}
	lats := make([][]float64, clients)
	fails := make([]int64, clients)
	untimed := make([]time.Duration, clients)
	var total time.Duration
	for p := 0; total.Seconds() < seconds; p++ {
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var u time.Duration
				for i := c; i < n; i += clients {
					d, ui, ok := do(c, p, i)
					lats[c] = append(lats[c], ms(d))
					u += ui
					if !ok {
						fails[c]++
					}
				}
				untimed[c] = u
				res.busy[c] = append(res.busy[c], time.Since(start)-u)
			}(c)
		}
		wg.Wait()
		wall := time.Since(start)
		for _, u := range untimed {
			wall -= u / time.Duration(clients)
		}
		res.walls = append(res.walls, wall)
		total += wall
		if between != nil {
			if err := between(p); err != nil {
				return nil, err
			}
		}
	}
	for c := range lats {
		res.lat = append(res.lat, lats[c]...)
		res.failed += fails[c]
	}
	sort.Float64s(res.lat)
	return res, nil
}

// report sets the end-to-end metrics of a timed loop. The tail is the
// highest percentile (p99 or p90) with at least ten samples beyond it in
// a run of the workload; passInstrs, simCycles and codeWords are the
// simulator work and emitted code of one pass over the op list.
func (o *outcome) report(l *loop, tail float64, mem *memDelta, passInstrs, simCycles, codeWords, setup float64) {
	allocs, kb, _ := mem.finish(int64(len(l.lat)))
	o.attempted, o.failed = int64(len(l.lat)), l.failed
	o.set("req_per_s", l.rate(), "1/s")
	o.set("latency_p50_ms", percentile(l.lat, 0.50), "ms")
	o.set("latency_tail_ms", percentile(l.lat, tail), "ms")
	o.set("steps_per_s", l.rate()*passInstrs/float64(l.ops), "1/s")
	o.set("sim_cycles", simCycles, "cycles")
	o.set("code_words", codeWords, "words")
	o.set("allocs_per_op", allocs, "count")
	o.set("alloc_kb_per_op", kb, "KB")
	o.set("heap_live_mb", liveHeapMB(), "MB")
	o.set("setup_s", setup, "s")
}
