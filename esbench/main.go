// Command esbench is the es benchmark: four seeded, output-checked
// workloads that drive the embedded engine and the esd daemon, reporting
// end-to-end metrics from untraced runs and, with -trace 1, a per-layer
// breakdown timed around the calls into each layer.
//
// Usage (from the root of an es source checkout; esbench/run.sh builds
// the benchmark and esd, then runs this):
//
//	esbench -esd path/to/esd -work dir -workload script-hot -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{"value":…,"unit":…}}}.
// Progress and diagnostics go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// gomaxprocs is the processor count the benchmark and every daemon it
// starts run with, whatever the host has, so figures from hosts with more
// cores stay comparable.  All load comes from at most this many clients.
const gomaxprocs = 2

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a workload's outcome.  correct covers the run-level
// properties (stats counters, replies per id, cache behaviour); a wrong
// answer to one operation counts in failed.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// env carries the command line to the workloads.
type env struct {
	seed    int64
	seconds time.Duration
	esd     string // esd binary
	work    string // private scratch directory of this run
}

var workloads = map[string]func(e *env, trace bool) (*report, error){
	"script-hot":    runScriptHot,
	"script-cold":   runScriptCold,
	"esd-serial":    runESDSerial,
	"esd-pipelined": runESDPipelined,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload `name`: script-hot, script-cold, esd-serial or esd-pipelined")
		seed     = flag.Int64("seed", 1, "input `seed`")
		seconds  = flag.Int("seconds", 20, "length of the timed phase in `seconds`")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		esdBin   = flag.String("esd", "", "esd `binary` to serve the esd workloads")
		work     = flag.String("work", "", "scratch `dir` (a private subdirectory is made and removed)")
		probe    = flag.Bool("probe-new", false, "internal: time one cold es.New and print it")
	)
	flag.Parse()
	if *probe {
		return probeNew()
	}
	runtime.GOMAXPROCS(gomaxprocs)
	fn, ok := workloads[*workload]
	if !ok || *esdBin == "" || *work == "" || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "esbench: need -workload (script-hot|script-cold|esd-serial|esd-pipelined), -esd, -work, -seconds ≥ 1, -trace 0|1")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "esbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "esbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, esd: *esdBin, work: dir}
	fmt.Printf("host: %s\n", fingerprint())
	fmt.Printf("run: workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	r, err := fn(e, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "esbench:", *workload+":", err)
		return 1
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "esbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// traceFile is where a traced run writes its spans.
func traceFile(e *env, workload string) string {
	return filepath.Join(filepath.Dir(e.work), fmt.Sprintf("trace-%s-seed%d.tsv", workload, e.seed))
}
