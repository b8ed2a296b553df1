package main

// The script workloads: one warm es.Shell in this process.  script-hot
// runs a fixed corpus many times (parse and compile caches hit on every
// operation); script-cold runs a text never seen before on every
// operation, vetted first the way `esd -vet` vets an eval.

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"es"
	"es/internal/analysis"
	"es/internal/cache"
	"es/internal/core"
)

// setupSamples is how many cold starts set-up time is the median of.
const setupSamples = 21

// probeNew is the child side of the set-up measurement: one cold es.New
// in a fresh process, its duration printed in nanoseconds.
func probeNew() int {
	t0 := time.Now()
	if _, err := es.New(es.Options{}); err != nil {
		fmt.Fprintln(os.Stderr, "esbench: es.New:", err)
		return 1
	}
	fmt.Println(int64(time.Since(t0)))
	return 0
}

// coldNewSetup is the median time of a cold es.New, each in a process of
// its own so that no cache is warm.
func coldNewSetup() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ds := make([]time.Duration, setupSamples)
	for k := range ds {
		cmd := exec.Command(self, "-probe-new")
		cmd.Env = []string{fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs)}
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		ds[k] = time.Duration(ns)
	}
	return medianDur(ds), nil
}

// shell is the warm interpreter of a script workload, its output
// captured per operation.
type shell struct {
	sh        *es.Shell
	in        *core.Interp
	out, errb bytes.Buffer
}

func newShell(dir string) (*shell, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	s := &shell{}
	s.sh, err = es.New(es.Options{Stdout: &s.out, Stderr: &s.errb, Dir: abs})
	if err != nil {
		return nil, err
	}
	s.in = s.sh.Interp()
	return s, nil
}

func (s *shell) run(src string) (core.List, error) {
	s.out.Reset()
	s.errb.Reset()
	return s.sh.Run(src)
}

// check compares the last operation's output with the case's oracle.
func (s *shell) check(c *scriptCase, err error) bool {
	if err != nil || string(s.out.Bytes()) != c.stdout {
		return false
	}
	if c.stderrLines == 0 {
		return s.errb.Len() == 0
	}
	return bytes.Count(s.errb.Bytes(), []byte{'\n'}) == c.stderrLines
}

// hotSetup writes the Figure 1 texts, starts the warm shell and defines
// the list library.
func hotSetup(e *env) (*shell, []scriptCase, error) {
	files := make([]string, hotFiles)
	for i := range files {
		files[i] = fmt.Sprintf("fig1-%d.txt", i)
	}
	cases, texts := hotCorpus(e.seed, files)
	for i, t := range texts {
		if err := os.WriteFile(filepath.Join(e.work, files[i]), []byte(t.text), 0o644); err != nil {
			return nil, nil, err
		}
	}
	s, err := newShell(e.work)
	if err != nil {
		return nil, nil, err
	}
	if _, err := s.run(listLib); err != nil {
		return nil, nil, fmt.Errorf("list library: %w", err)
	}
	return s, cases, nil
}

// warmUp is how long every workload runs untimed before its timed phase,
// so that caches, the heap and the GC pacer have settled.
const warmUp = time.Second

// warmRounds runs whole untimed rounds for at least d and returns how many
// operations ran and how long they took, for sizing the timed phase.
func warmRounds(d time.Duration, roundLen int, op opFunc) (int, time.Duration) {
	t0 := time.Now()
	n := 0
	for time.Since(t0) < d {
		for i := 0; i < roundLen; i++ {
			op(i)
		}
		n += roundLen
	}
	return n, time.Since(t0)
}

func runScriptHot(e *env, trace bool) (*report, error) {
	r := &report{Correct: true}
	setup, err := coldNewSetup()
	if err != nil {
		return nil, err
	}
	s, cases, err := hotSetup(e)
	if err != nil {
		return nil, err
	}
	op := func(i int) (time.Duration, bool) {
		c := &cases[i]
		t0 := time.Now()
		_, err := s.run(c.src)
		d := time.Since(t0)
		return d, s.check(c, err)
	}
	n, w := warmRounds(warmUp, len(cases), op)
	if trace {
		srcs := make([]string, len(cases))
		for k := range cases {
			srcs[k] = cases[k].src
		}
		p := newProbes(newTracer())
		return traceScript(e, "script-hot", r, s, len(cases), op, n, w, p, hotTraced(s, cases, p), srcs, 2)
	}
	scriptE2E(r, e.seconds, windowFor(n, w), len(cases), capFor(n, w, e.seconds), op)
	r.set("setup_s", "s", setup)
	return r, nil
}

// coldRound is the number of distinct module shapes in a script-cold
// round; every operation still gets a text of its own.
const coldRound = 64

// coldShell is script-cold's state: the warm shell, its round of module
// templates and the sequence that makes every text unique.
type coldShell struct {
	*shell
	tpls []coldCase
	seq  int
}

func (c *coldShell) nextID() string {
	c.seq++
	return "c" + strconv.FormatInt(int64(c.seq), 36)
}

// cacheByName picks one cache's counters out of Interp.CacheStats.
func cacheByName(sts []cache.Stats, name string) cache.Stats {
	for _, st := range sts {
		if st.Name == name {
			return st
		}
	}
	return cache.Stats{}
}

func coldSetup(e *env) (*coldShell, error) {
	s, err := newShell(e.work)
	if err != nil {
		return nil, err
	}
	c := &coldShell{shell: s, tpls: coldModules(e.seed, coldRound)}
	// Fill the parse and compile caches with one-off entries first, so
	// the timed phase starts with both caches full and evicting, as they
	// stay for the rest of the run.
	for k := 0; k < 1200; k++ {
		if _, err := s.run("echo " + c.nextID()); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func runScriptCold(e *env, trace bool) (*report, error) {
	r := &report{Correct: true}
	setup, err := coldNewSetup()
	if err != nil {
		return nil, err
	}
	c, err := coldSetup(e)
	if err != nil {
		return nil, err
	}
	op := func(i int) (time.Duration, bool) {
		t := &c.tpls[i]
		id := c.nextID()
		src := t.src.fill(id)
		before := cacheByName(c.in.CacheStats(), "parse")
		t0 := time.Now()
		res := analysis.Analyze(src, analysis.Options{Env: analysis.EnvFromInterp(c.in)})
		_, err := c.run(src)
		d := time.Since(t0)
		after := cacheByName(c.in.CacheStats(), "parse")
		ok := res.Errors() == 0 && err == nil && c.errb.Len() == 0 &&
			t.stdout.matches(c.out.Bytes(), id) && after.Hits == before.Hits
		return d, ok
	}
	n, w := warmRounds(warmUp, coldRound, op)
	if trace {
		// The allocation replay gets texts of its own, so that it too
		// parses and compiles every block afresh.
		srcs := make([]string, coldRound)
		for k := range srcs {
			srcs[k] = c.tpls[k].src.fill(c.nextID())
		}
		p := newProbes(newTracer())
		return traceScript(e, "script-cold", r, c.shell, coldRound, op, n, w, p, coldTraced(c, p), srcs, 1)
	}
	scriptE2E(r, e.seconds, windowFor(n, w), coldRound, capFor(n, w, e.seconds), op)
	r.set("setup_s", "s", setup)
	return r, nil
}

// scriptE2E runs the timed phase of a script workload and sets every
// end-to-end metric but setup_s.  It returns the untraced p50.
func scriptE2E(r *report, d, width time.Duration, roundLen, capHint int, op opFunc) float64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	p := runRounds(d, width, roundLen, capHint, selfSample, op)
	runtime.ReadMemStats(&m1)
	n := float64(p.attempted)
	r.set("allocs_per_op", "count", float64(m1.Mallocs-m0.Mallocs)/n)
	r.set("alloc_bytes_per_op", "bytes", float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	p50 := p.latencyMetrics(r)
	p.meters = nil
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.set("heap_live_mb", "MB", float64(m1.HeapAlloc)/(1<<20))
	if hwm, err := procStatusKB(0, "VmHWM"); err == nil {
		r.set("peak_rss_mb", "MB", hwm/1024)
	}
	return p50
}
