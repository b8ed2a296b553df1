package main

// The closed-loop runner shared by the workloads, and the windowed
// reduction of a timed phase to its end-to-end figures.
//
// A run attempts whole rounds of the same operations until the timed phase
// is over, so the share of failed operations is the same in every run
// whatever its length.  The phase is cut into fixed windows, each holding
// at least about a thousand operations, and every time figure is taken per
// window and then reduced across windows: ops_per_s and cpu_us_per_op as
// the interquartile mean, the latency quantiles as the median of the
// windows' quantiles.  On a host shared with other tenants a few seconds
// of interference then move a figure by one window's worth, not by their
// whole weight in the run.

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// opFunc runs operation i of a round and returns its latency and whether
// the program answered it correctly.
type opFunc func(i int) (time.Duration, bool)

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// meter records one client's operations by window.  One goroutine owns it.
type meter struct {
	start time.Time
	width time.Duration
	lat   []float64 // µs of each correct operation, in completion order
	first []int     // first[k]: index in lat of window k's first sample
	n     []int     // n[k]: operations completed in window k, correct or not
}

func newMeter(start time.Time, width time.Duration, capHint int) *meter {
	return &meter{start: start, width: width, lat: make([]float64, 0, capHint),
		first: make([]int, 0, 256), n: make([]int, 0, 256)}
}

func (m *meter) record(now time.Time, d time.Duration, ok bool) {
	k := int(now.Sub(m.start) / m.width)
	for len(m.n) <= k {
		m.first = append(m.first, len(m.lat))
		m.n = append(m.n, 0)
	}
	m.n[k]++
	if ok {
		m.lat = append(m.lat, us(d))
	}
}

// window returns window k's latency samples.
func (m *meter) window(k int) []float64 {
	if k >= len(m.first) {
		return nil
	}
	end := len(m.lat)
	if k+1 < len(m.first) {
		end = m.first[k+1]
	}
	return m.lat[m.first[k]:end]
}

// windowFor is the window width for a workload that ran n operations in
// w while warming up: whole seconds, long enough for about a thousand
// operations, so that each window has a p99 with ten samples beyond it.
func windowFor(n int, w time.Duration) time.Duration {
	if n == 0 {
		return time.Second
	}
	need := time.Duration(float64(w) * 1000 / float64(n))
	return max(time.Second, (need+time.Second-1)/time.Second*time.Second)
}

// capFor estimates how many operations a phase of length d records,
// from a warm-up that ran n operations in w.
func capFor(n int, w, d time.Duration) int {
	if w <= 0 {
		return 1 << 16
	}
	return int(float64(n)*d.Seconds()/w.Seconds()*1.3) + 1024
}

// phase is one timed phase's record.
type phase struct {
	attempted, failed int
	elapsed           time.Duration
	width             time.Duration
	meters            []*meter
	samples           []sample // the measured process at each window boundary
}

// sample is what is read of the measured process at a window boundary:
// its CPU time and, when it is this process, its heap allocation count.
type sample struct {
	cpu     time.Duration
	mallocs uint64
}

// selfSample samples this process.
func selfSample() sample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return sample{cpu: selfCPU(), mallocs: m.Mallocs}
}

// sampler reads the measured process at every window boundary from start
// on, until the returned stop function is called.
func sampler(start time.Time, width time.Duration, read func() sample) (stop func() []sample) {
	done := make(chan struct{})
	out := make(chan []sample, 1)
	first := read()
	go func() {
		ss := []sample{first}
		for k := 1; ; k++ {
			t := time.NewTimer(time.Until(start.Add(time.Duration(k) * width)))
			select {
			case <-t.C:
				ss = append(ss, read())
			case <-done:
				t.Stop()
				out <- ss
				return
			}
		}
	}()
	return func() []sample {
		close(done)
		return <-out
	}
}

// runRounds repeats rounds of roundLen operations until d has passed,
// sampling the measured process with read at every window.
func runRounds(d, width time.Duration, roundLen, capHint int, read func() sample, op opFunc) *phase {
	start := time.Now()
	m := newMeter(start, width, capHint)
	p := &phase{width: width, meters: []*meter{m}}
	stop := sampler(start, width, read)
	for p.elapsed < d {
		for i := 0; i < roundLen; i++ {
			dur, ok := op(i)
			m.record(time.Now(), dur, ok)
			p.attempted++
			if !ok {
				p.failed++
			}
		}
		p.elapsed = time.Since(start)
	}
	p.samples = stop()
	return p
}

// lat returns every correct operation's latency, client by client.
func (p *phase) lat() []float64 {
	var all []float64
	for _, m := range p.meters {
		all = append(all, m.lat...)
	}
	return all
}

// latencyMetrics sets ops_per_s, latency_p50_us and cpu_us_per_op from
// the phase's whole windows, prints the p99 and the run's stationarity on
// standard error, counts the operations into r and returns the p50.
func (p *phase) latencyMetrics(r *report) float64 {
	all := p.lat()
	if n := len(all) / 10; n > 0 {
		f := median(append([]float64(nil), all[:n]...))
		l := median(append([]float64(nil), all[len(all)-n:]...))
		fmt.Fprintf(os.Stderr, "stationarity: p50 first tenth %.2f us, last tenth %.2f us (%+.1f%%), %d ops each\n",
			f, l, 100*(l-f)/f, n)
	}
	nw := int(p.elapsed / p.width)
	width := p.width.Seconds()
	if nw < 1 {
		nw, width = 1, p.elapsed.Seconds()
	}
	var rates, p50s, p99s, cpus, allocs []float64
	for k := 0; k < nw; k++ {
		cnt := 0
		var samples []float64
		for _, m := range p.meters {
			if k < len(m.n) {
				cnt += m.n[k]
				samples = append(samples, m.window(k)...)
			}
		}
		rates = append(rates, float64(cnt)/width)
		if len(samples) > 0 {
			p50s = append(p50s, quantile(samples, 0.5))
			p99s = append(p99s, quantile(samples, 0.99))
		}
		if k+1 < len(p.samples) && cnt > 0 {
			a, b := p.samples[k], p.samples[k+1]
			cpus = append(cpus, us(b.cpu-a.cpu)/float64(cnt))
			allocs = append(allocs, float64(b.mallocs-a.mallocs)/float64(cnt))
		}
	}
	if len(cpus) == 0 && len(p.samples) > 0 && p.attempted > 0 {
		a, b := p.samples[0], p.samples[len(p.samples)-1]
		cpus = append(cpus, us(b.cpu-a.cpu)/float64(p.attempted))
	}
	// Allocation counts do not move with the host's load, so they show
	// whether per-operation work grows along the run.
	if len(allocs) >= 2 && allocs[0] > 0 {
		fmt.Fprintf(os.Stderr, "stationarity: allocs/op first window %.1f, last window %.1f (%+.2f%%)\n",
			allocs[0], allocs[len(allocs)-1], 100*(allocs[len(allocs)-1]-allocs[0])/allocs[0])
	}
	p50 := median(p50s)
	r.set("ops_per_s", "1/s", iqm(rates))
	r.set("latency_p50_us", "us", p50)
	r.set("cpu_us_per_op", "us", iqm(cpus))
	// The p99 is reported but not among the checked metrics: on a shared
	// host its run-to-run spread exceeds any bound the benchmark may set
	// (see README.md).
	fmt.Fprintf(os.Stderr, "latency_p99_us: %.1f (not checked)\n", median(p99s))
	r.Attempted += p.attempted
	r.Failed += p.failed
	fmt.Fprintf(os.Stderr, "timed: %d ops (%d failed) in %.2fs, %d windows of %v\n",
		p.attempted, p.failed, p.elapsed.Seconds(), nw, p.width)
	return p50
}
