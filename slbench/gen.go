package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Seeded input generation. Every workload's inputs are a pure function of
// the seed: the same seed gives byte-identical programs, files and op
// lists, and the program under test only ever sees these generated texts.

// tmpl is one defun template. src is a fmt format whose %[1]s is the
// function name and %[2]d..%[4]d are seeded constants, never in a branch
// condition, so control flow depends on the stratified arguments alone.
// args gives a call's printed arguments for a stratum q in [0,1). A
// template may define a helper function and a special next to its entry
// function; defs counts the defuns it contributes.
type tmpl struct {
	src  string
	defs int
	args func(q float64) []string
}

func intArg(lo, hi int) func(q float64) []string {
	return func(q float64) []string { return []string{fmt.Sprint(lo + int(q*float64(hi-lo+1)))} }
}

func floatArg(q float64) []string {
	return []string{fmt.Sprintf("%.1f", 1+q*40)}
}

// templates cover the dialect's main compile paths: fixnum and flonum
// generic arithmetic, open-coded $f flonum code, prog loops, caseq
// dispatch, special binding, closures, and catch/throw.
var templates = []tmpl{
	{defs: 1, src: `(defun %[1]s (x y)
  (let ((a (+ x %[2]d)) (b (* y %[3]d)))
    (if (and (> a 0) (or (< b 600) (> x y)))
        (+ (* a a) (* b b))
        (- (* a b) %[2]d))))`,
		args: func(q float64) []string {
			return []string{fmt.Sprint(int(q*100) - 20), fmt.Sprint(int(q*1733) % 50)}
		}},
	{defs: 1, src: `(defun %[1]s (x)
  (let ((d (- (* x x) (* 4.0 x 5.0))))
    (cond ((< d 0) '())
          ((= d 0) (list (/ (- x) 2.0)))
          (t (let ((sd (sqrt d))) (list (+ x sd) (- x %[2]d.0) (* sd %[3]d.0)))))))`,
		args: floatArg},
	{defs: 1, src: `(defun %[1]s (n)
  (prog (i s)
    (setq i 0 s %[2]d)
   loop
    (if (> i n) (return s) nil)
    (setq s (+ s (* i %[3]d)) i (+ i 1))
    (go loop)))`,
		args: intArg(10, 200)},
	{defs: 1, src: `(defun %[1]s (x)
  (let ((a (+$f x %[2]d.0)) (b (*$f x x)))
    (sqrt$f (+$f (*$f a a) (+$f (*$f b b) %[3]d.0)))))`,
		args: floatArg},
	{defs: 1, src: `(defun %[1]s (k)
  (caseq k ((1 2 3) (+ k %[2]d)) (10 (* k %[3]d)) (t (- k %[4]d))))`,
		args: intArg(0, 12)},
	{defs: 2, src: `(defvar *%[1]s-depth* %[2]d)
(defun %[1]s-peek (y) (* *%[1]s-depth* y))
(defun %[1]s (x)
  (let ((*%[1]s-depth* (+ x %[3]d)))
    (+ (%[1]s-peek %[4]d) *%[1]s-depth*)))`,
		args: intArg(0, 50)},
	{defs: 2, src: `(defun %[1]s-apply (f x) (funcall f (funcall f x)))
(defun %[1]s (n)
  (let ((f (lambda (x) (+ x %[2]d n))))
    (+ (%[1]s-apply f n) (funcall f %[3]d))))`,
		args: intArg(0, 90)},
	{defs: 1, src: `(defun %[1]s (x)
  (catch 'done
    (if (> x 60) (throw 'done (* x %[2]d)) (+ x %[3]d))))`,
		args: intArg(0, 120)},
}

// preludeSrc is the serve-cold daemon's standard library: the request
// programs' "lib" template calls into it, so requests exercise
// late-bound calls into the restored snapshot image.
const preludeSrc = `(defun lib-sq (x) (* x x))
(defun lib-cube (x) (* x (* x x)))
(defun lib-clamp (x lo hi) (cond ((< x lo) lo) ((> x hi) hi) (t x)))
(defun lib-sum-to (n)
  (prog (i s)
    (setq i 0 s 0)
   loop
    (if (> i n) (return s) nil)
    (setq s (+ s i) i (+ i 1))
    (go loop)))
(defun lib-iota (n)
  (prog (acc)
    (setq acc nil)
   loop
    (if (<= n 0) (return acc) nil)
    (setq acc (cons n acc) n (- n 1))
    (go loop)))
(defun lib-sum-list (l) (if (null l) 0 (+ (car l) (lib-sum-list (cdr l)))))
(defun lib-fact (n) (if (< n 2) 1 (* n (lib-fact (- n 1)))))
(defun lib-hyp (a b) (sqrt (+ (* a a) (* b b))))
(defun lib-max3 (a b c) (max a (max b c)))`

// libTemplate calls the prelude.
var libTemplate = tmpl{defs: 1, src: `(defun %[1]s (n)
  (+ (lib-sq n) (lib-sum-to (lib-clamp n 0 40))
     (lib-sum-list (lib-iota (lib-clamp n 1 20)))
     (lib-max3 n %[2]d (lib-fact 6))))`,
	args: intArg(0, 60)}

func instantiate(t tmpl, name string, r *rand.Rand) string {
	return fmt.Sprintf(t.src, name, 1+r.Intn(90), 1+r.Intn(90), 1+r.Intn(90))
}

// The generators stratify: the seed shuffles which template goes where,
// which call gets which argument stratum, and draws the constants, but the
// multiset of templates and of argument strata is the same for every
// seed. Two seeds thus give different programs with the same mix, so the
// exact counts (cycles, code words) move little between seeds and a
// change to the program moves them the same way on every seed.

// deck returns n values in 0..m-1, each appearing n/m or n/m+1 times, in
// seeded order.
func deck(r *rand.Rand, n, m int) []int {
	d := make([]int, n)
	for i := range d {
		d[i] = i % m
	}
	r.Shuffle(n, func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

// strata returns, for kinds drawn as in ks, one argument stratum per
// entry: the occurrences of each kind get evenly spaced strata in seeded
// order.
func strata(r *rand.Rand, ks []int) []float64 {
	count := map[int]int{}
	for _, k := range ks {
		count[k]++
	}
	perm := map[int][]int{}
	for k := 0; len(perm) < len(count); k++ {
		if n, ok := count[k]; ok {
			perm[k] = r.Perm(n)
		}
	}
	seen := map[int]int{}
	out := make([]float64, len(ks))
	for i, k := range ks {
		out[i] = (float64(perm[k][seen[k]]) + 0.5) / float64(count[k])
		seen[k]++
	}
	return out
}

// serveOp is one serve-cold request: a fresh program plus one call.
type serveOp struct {
	source string
	fn     string
	args   []string
	defuns int
}

// genServeOps draws n request programs of 1-4 template defuns each (a
// quarter of each size); the call goes to the program's last, entry
// function.
func genServeOps(seed int64, n int) []serveOp {
	r := rand.New(rand.NewSource(seed*7919 + 11))
	all := append(append([]tmpl(nil), templates...), libTemplate)
	sizes := deck(r, n, 4)
	entries := deck(r, n, len(all))
	qs := strata(r, entries)
	extra := 0
	for _, k := range sizes {
		extra += k
	}
	helpers := deck(r, extra, len(all))
	ops := make([]serveOp, n)
	for i := range ops {
		var sb strings.Builder
		op := &ops[i]
		kinds := append(helpers[:sizes[i]:sizes[i]], entries[i])
		helpers = helpers[sizes[i]:]
		for j, k := range kinds {
			t := all[k]
			name := fmt.Sprintf("r%d-%d", i, j)
			sb.WriteString(instantiate(t, name, r))
			sb.WriteString("\n")
			op.defuns += t.defs
			op.fn = name
		}
		op.args = all[entries[i]].args(qs[i])
		op.source = sb.String()
	}
	return ops
}

// genFile builds one compile-* source file from the given template kinds,
// naming the defuns <prefix>-<i>, and ends it with a top-level form that
// calls the first entry function of each of the first inits kinds, as a
// library's load-time initialization would.
func genFile(r *rand.Rand, prefix string, kinds []int, inits int) (src string, defuns int) {
	var sb strings.Builder
	var calls []string
	called := map[int]bool{}
	for i, k := range kinds {
		t := templates[k]
		name := fmt.Sprintf("%s-%d", prefix, i)
		sb.WriteString(instantiate(t, name, r))
		sb.WriteString("\n")
		defuns += t.defs
		if !called[k] && len(called) < inits {
			called[k] = true
			calls = append(calls, "("+name+" "+strings.Join(t.args(0.5), " ")+")")
		}
	}
	fmt.Fprintf(&sb, "(defvar *%s-init* (list %s))\n", prefix, strings.Join(calls, " "))
	return sb.String(), defuns
}

// bulkFile is one compile-* input file.
type bulkFile struct {
	source string
	defuns int
}

// genBulkFiles draws files of n template instances each, every template
// equally often (n = 160 gives 200 defuns).
func genBulkFiles(seed int64, files, n int) []bulkFile {
	r := rand.New(rand.NewSource(seed*104729 + 3))
	out := make([]bulkFile, files)
	for i := range out {
		out[i].source, out[i].defuns = genFile(r, fmt.Sprintf("b%d", i), deck(r, n, len(templates)), len(templates))
	}
	return out
}

// warmOp is one compile-warm load: a base file the cache already holds,
// with novel defuns appended that the cache has never seen.
type warmOp struct {
	source string
	defuns int // all defuns in the load
	novel  int // defuns in the appended tail
}

// genWarm draws the base files (n template instances each) and the op
// list: each op is a base file plus a tail of tail template instances.
// Tails are unique per op, so every op's tail misses and is stored while
// its base replays.
func genWarm(seed int64, bases, n, ops, tail int) ([]bulkFile, []warmOp) {
	r := rand.New(rand.NewSource(seed*15485863 + 5))
	base := make([]bulkFile, bases)
	for i := range base {
		var sb strings.Builder
		for j, k := range deck(r, n, len(templates)) {
			sb.WriteString(instantiate(templates[k], fmt.Sprintf("w%d-%d", i, j), r))
			sb.WriteString("\n")
			base[i].defuns += templates[k].defs
		}
		base[i].source = sb.String()
	}
	which := deck(r, ops, bases)
	// Each tail takes tail distinct kinds: a balanced first kind, then
	// the following ones at a seeded stride.
	first := deck(r, ops, len(templates))
	stride := deck(r, ops, len(templates)/tail)
	out := make([]warmOp, ops)
	for i := range out {
		b := base[which[i]]
		kinds := make([]int, tail)
		for j := range kinds {
			kinds[j] = (first[i] + j*(1+stride[i])) % len(templates)
		}
		src, novel := genFile(r, fmt.Sprintf("t%d", i), kinds, 1)
		out[i] = warmOp{source: b.source + src, defuns: b.defuns + novel, novel: novel}
	}
	return base, out
}

// kernelSrc is the session-hot program: the paper's runtime kernels
// (exptl, quadratic, testfn), a polymorphic-call kernel, a cons-churn
// kernel over a long-lived resident list, and fib. Each *-run entry point is
// a pure function of its argument and returns a checksum, so its value
// can be checked against the tree interpreter.
const kernelSrc = `
(defun exptl (x n a)
  (cond ((zerop n) a)
        ((oddp n) (exptl (* x x) (floor n 2) (* a x)))
        (t (exptl (* x x) (floor n 2) a))))
(defun exptl-run (k)
  (prog (i s)
    (setq i 0 s 0)
   loop
    (if (>=& i k) (return s) nil)
    (setq s (+ s (exptl 3 (rem i 24) 1)))
    (setq i (+& i 1))
    (go loop)))
(defun quadratic (a b c)
  (let ((d (- (* b b) (* 4.0 a c))))
    (cond ((< d 0) '())
          ((= d 0) (list (/ (- b) (* 2.0 a))))
          (t (let ((2a (* 2.0 a)) (sd (sqrt d)))
               (list (/ (+ (- b) sd) 2a)
                     (/ (- (- b) sd) 2a)))))))
(defun quadratic-run (k)
  (prog (i s r)
    (setq i 0 s 0.0)
   loop
    (if (>=& i k) (return s) nil)
    (setq r (quadratic 1.0 (- 0.0 (float (+& 3 (rem i 7)))) 2.0))
    (if r (setq s (+ s (car r))) nil)
    (setq r (quadratic 1.0 2.0 1.0))
    (setq s (+ s (car r)))
    (setq i (+& i 1))
    (go loop)))
(defun frotz (a b c) nil)
(defun testfn (a &optional (b 3.0) (c a))
  (let ((d (+$f a b c)) (e (*$f a b c)))
    (let ((q (sin$f e)))
      (frotz d e (max$f d e))
      q)))
(defun testfn-run (k)
  (prog (i x s)
    (setq i 0 x 0.25 s 0.0)
   loop
    (if (>=& i k) (return s) nil)
    (setq s (+ s (testfn x)))
    (setq x (+$f x 0.001))
    (setq i (+& i 1))
    (go loop)))
(defun inc (x) (+& x 1))
(defun dbl (x) (+& x x))
(defun poly-step (f x) (funcall f x))
(defun mono-step (x) (step1 x))
(defun step1 (x) (if (>=& x 4097) 1 (inc x)))
(defun poly-run (k)
  (prog (i acc)
    (setq i 0 acc 1)
   loop
    (if (>=& i k) (return acc) nil)
    (setq acc (mono-step acc))
    (setq acc (poly-step (if (oddp i) (function inc) (function dbl)) acc))
    (setq i (+& i 1))
    (go loop)))
(defun build (n)
  (prog (acc i)
    (setq acc nil i 0)
   loop
    (if (>=& i n) (return acc) nil)
    (setq acc (cons i acc))
    (setq i (+& i 1))
    (go loop)))
(defun sum-list (l)
  (prog (s)
    (setq s 0)
   loop
    (if (null l) (return s) nil)
    (setq s (+& s (car l)) l (cdr l))
    (go loop)))
(defun churn-run (k)
  (prog (i s)
    (setq i 0 s 0)
   loop
    (if (>=& i k) (return s) nil)
    (setq s (+& s (sum-list (build 100))))
    (setq i (+& i 1))
    (go loop)))
(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(defun fib-run (n) (fib n))
(setq *keep* (build 20000))`

// kernelCall is one session-hot op.
type kernelCall struct {
	fn  string
	arg int
}

// kernelSizes are the per-kernel arguments a session-hot op draws from.
// Each op does tens of milliseconds of simulated work, so the per-op
// fixed cost (request handling and the 16 MB stack clear on reattach)
// is a small share of it.
var kernelSizes = []struct {
	fn    string
	sizes []int
}{
	{"exptl-run", []int{9000, 15000, 24000}},
	{"quadratic-run", []int{9000, 15000, 24000}},
	{"testfn-run", []int{18000, 30000, 48000}},
	{"poly-run", []int{36000, 60000, 96000}},
	{"churn-run", []int{360, 600, 960}},
	{"fib-run", []int{20, 21, 22}},
}

// genKernelCalls draws n session-hot ops for the given number of
// sessions: session s takes ops s, s+sessions, ..., and every session
// gets each (kernel, size) pair equally often.
func genKernelCalls(seed int64, n, sessions int) []kernelCall {
	r := rand.New(rand.NewSource(seed*2750159 + 7))
	per := len(kernelSizes[0].sizes)
	out := make([]kernelCall, n)
	for c := 0; c < sessions; c++ {
		for j, k := range deck(r, n/sessions, len(kernelSizes)*per) {
			ks := kernelSizes[k/per]
			out[j*sessions+c] = kernelCall{fn: ks.fn, arg: ks.sizes[k%per]}
		}
	}
	return out
}
