package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
)

// short runs each workload for a fraction of a second: one pass.
const short = 0.05

func TestSameSeedSameInputs(t *testing.T) {
	gens := map[string]func(seed int64) any{
		"serve":   func(seed int64) any { return genServeOps(seed, serveOps) },
		"kernels": func(seed int64) any { return genKernelCalls(seed, sessionOps, sessions) },
		"bulk":    func(seed int64) any { return genBulkFiles(seed, bulkFiles, bulkTemplates) },
		"warm": func(seed int64) any {
			base, ops := genWarm(seed, warmBases, warmTemplates, warmOps, warmTail)
			return []any{base, ops}
		},
	}
	for name, gen := range gens {
		a, b, c := gen(7), gen(7), gen(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different input sets", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

// TestStrataKeepTheMix checks that seeds change which template and
// argument each op gets but not the mix, and that session-hot's two
// sessions get the same work.
func TestStrataKeepTheMix(t *testing.T) {
	sorted := func(seed int64) []kernelCall {
		c := genKernelCalls(seed, sessionOps, sessions)
		sort.Slice(c, func(i, j int) bool { return c[i].fn < c[j].fn || c[i].fn == c[j].fn && c[i].arg < c[j].arg })
		return c
	}
	if !reflect.DeepEqual(sorted(3), sorted(4)) {
		t.Error("session-hot's kernel calls depend on the seed")
	}
	defuns := func(seed int64) (n int) {
		for _, op := range genServeOps(seed, serveOps) {
			n += op.defuns
		}
		return n
	}
	if defuns(3) != defuns(4) {
		t.Error("serve-cold's defun count depends on the seed")
	}
	per := map[kernelCall][2]int{}
	for i, k := range genKernelCalls(5, sessionOps, sessions) {
		n := per[k]
		n[i%sessions]++
		per[k] = n
	}
	for k, n := range per {
		if n[0] != n[1] {
			t.Errorf("%v: sessions get %d and %d calls", k, n[0], n[1])
		}
	}
}

func TestExactCountsRepeat(t *testing.T) {
	for name, run := range workloads {
		var got [2]*outcome
		for i := range got {
			o, err := run(config{seed: 7, seconds: short})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(o.problems) > 0 || o.failed > 0 {
				t.Fatalf("%s: %d failed, problems %v", name, o.failed, o.problems)
			}
			got[i] = o
		}
		for _, m := range []string{"sim_cycles", "code_words"} {
			a, b := got[0].metrics[m].Value, got[1].metrics[m].Value
			if a != b || a <= 0 {
				t.Errorf("%s: %s %v then %v", name, m, a, b)
			}
		}
	}
}

// traceTolerance bounds how far the traced layer sum may fall from the
// op time, as a share of it. The replay runs each op's layers again
// between ops, so the two machines' arenas evict each other from the
// caches; a daemon op measured this way runs about a fifth slower than
// alone.
const traceTolerance = 0.35

func TestTracedLayersAddUp(t *testing.T) {
	for name, run := range workloads {
		o, err := run(config{seed: 7, seconds: 0.5, trace: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(o.problems) > 0 || o.failed > 0 {
			t.Fatalf("%s: %d failed, problems %v", name, o.failed, o.problems)
		}
		for _, ln := range layerNames {
			if _, ok := o.metrics[ln.name]; !ok {
				t.Errorf("%s: no %s", name, ln.name)
			}
		}
		frac := o.metrics["trace.unexplained_frac"].Value
		if math.Abs(frac) > traceTolerance {
			t.Errorf("%s: layers %.3f ms vs op %.3f ms (%.2f unexplained)", name,
				o.metrics["trace.layer_sum_ms"].Value, o.metrics["trace.op_ms"].Value, frac)
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks every workload reports exactly
// the metrics BENCHMARK.json declares, with the declared units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	o, err := runCompileBulk(config{seed: 1, seconds: short})
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, want []struct{ Name, Unit string }, got map[string]metric) {
		if len(want) != len(got) {
			t.Errorf("%s: declared %d metrics, reported %d", what, len(want), len(got))
		}
		for _, m := range want {
			if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("%s: %s declared in %s, reported %+v", what, m.Name, m.Unit, g)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, o.metrics)
	layers := map[string]metric{}
	for _, ln := range layerNames {
		layers[ln.name] = metric{Unit: ln.unit}
	}
	check("per_layer", spec.PerLayer, layers)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q2, q3 := quartiles(v); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}
