package main

// The esd workloads: the esd binary built from this checkout, driven over
// its wire protocol by clients in this process.  esd-serial is one
// helloless session (the esc protocol) in a closed loop over a unix
// socket; esd-pipelined is two TCP sessions that each keep a window of
// evals full.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"es/internal/server"
)

// esdStarts is how many daemon starts set-up time is the median of (the
// last one serves the run).
const esdStarts = 7

// daemon is one running esd.
type daemon struct {
	cmd  *exec.Cmd
	sock string // unix socket, relative to the working directory
	tcp  string // TCP address, when started with a TCP listener
	done chan error
}

// startDaemon execs esd and returns once it has answered its first eval,
// with the time that took.  The eval's bytes are added to the wire
// counters, since the daemon counts them too.
func startDaemon(e *env, n int, withTCP bool, w *wire) (*daemon, time.Duration, error) {
	d := &daemon{sock: filepath.Join(e.work, fmt.Sprintf("esd%d.sock", n)), done: make(chan error, 1)}
	args := []string{"-socket", d.sock, "-quiet", "-pool", "4"}
	addrFile := filepath.Join(e.work, fmt.Sprintf("esd%d.addr", n))
	if withTCP {
		args = append(args, "-tcp", "127.0.0.1:0", "-addr-file", addrFile)
	}
	d.cmd = exec.Command(e.esd, args...)
	d.cmd.Env = []string{fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs)}
	d.cmd.Stderr = os.Stderr
	// A daemon outlives no benchmark, even one that is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { d.done <- d.cmd.Wait() }()
	deadline := t0.Add(10 * time.Second)
	var conn net.Conn
	for {
		var err error
		if withTCP {
			if b, rerr := os.ReadFile(addrFile); rerr == nil && strings.HasSuffix(string(b), "\n") {
				d.tcp = strings.TrimPrefix(strings.TrimSpace(string(b)), "tcp=")
				conn, err = net.Dial("tcp", d.tcp)
			} else {
				err = errors.New("no address yet")
			}
		} else {
			conn, err = net.Dial("unix", d.sock)
		}
		if err == nil {
			break
		}
		select {
		case werr := <-d.done:
			return nil, 0, fmt.Errorf("esd exited during start-up: %v", werr)
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("esd not ready after 10s: %w", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	conn.SetDeadline(deadline)
	c := w.client(conn)
	rep, err := c.call(&server.Frame{Type: "eval", ID: 1, Src: "result ready"})
	setup := time.Since(t0)
	conn.Close()
	if err != nil || rep.Type != "result" || !slices.Equal(rep.Value, []string{"ready"}) {
		d.stop()
		return nil, 0, fmt.Errorf("esd's first eval: %v %+v", err, rep)
	}
	return d, setup, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain takes longer than 10 s.
func (d *daemon) stop() error {
	// A failed signal means the daemon has already exited; Wait reports how.
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		return err
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return errors.New("esd did not drain within 10s; killed")
	}
}

// daemonSetup starts esdStarts daemons one after another, stopping all
// but the last, and returns the last with the median start-up time.
func daemonSetup(e *env, withTCP bool, w *wire) (*daemon, float64, error) {
	ds := make([]time.Duration, esdStarts)
	var d *daemon
	for k := range ds {
		var err error
		if d, ds[k], err = startDaemon(e, k, withTCP, w); err != nil {
			return nil, 0, err
		}
		if k < esdStarts-1 {
			if err := d.stop(); err != nil {
				return nil, 0, fmt.Errorf("esd exit: %w", err)
			}
			w.reset()
		}
	}
	return d, medianDur(ds), nil
}

// runDeadline bounds every session's reads and writes, so that a daemon
// that stops answering ends the run with an error instead of a hang.
// (SetDeadline fails only on a closed connection, which the next read
// reports, so its error is not checked.)
func runDeadline(e *env) time.Time {
	return time.Now().Add(e.seconds + 60*time.Second)
}

// wire counts the bytes every client connection sent and received, to be
// checked against the daemon's own bytes_in/bytes_out.
type wire struct {
	in, out atomic.Int64
}

func (w *wire) reset() { w.in.Store(0); w.out.Store(0) }

// client is one connection speaking through the program's own codec.
type client struct {
	conn net.Conn
	fr   *server.FrameReader
	fw   *server.FrameWriter
}

func (w *wire) client(conn net.Conn) *client {
	return &client{conn: conn, fr: server.NewFrameReader(conn, &w.in), fw: server.NewFrameWriter(conn, &w.out)}
}

func (c *client) call(f *server.Frame) (*server.Frame, error) {
	if err := c.fw.Write(f); err != nil {
		return nil, err
	}
	return c.fr.Read()
}

// statsWords parses a stats frame's key:value words (first occurrence).
func statsWords(f *server.Frame) map[string]int64 {
	m := map[string]int64{}
	for _, w := range f.Stats {
		k, v, ok := strings.Cut(w, ":")
		if _, seen := m[k]; ok && !seen {
			n, _ := strconv.ParseInt(v, 10, 64)
			m[k] = n
		}
	}
	return m
}

// expectCounts is what the daemon's stats frame must say at the end.
type expectCounts struct {
	evals, snapshots, restores int64
	unread                     int64 // bytes sent that the daemon never read (see malformed)
}

// checkStats asks for the daemon's stats on c and compares them with the
// counts sent and the bytes both sides moved: the daemon counts a frame's
// bytes as it reads or writes it, so bytes_in covers the stats request
// and bytes_out everything written before the stats reply.
func checkStats(c *client, w *wire, want expectCounts) bool {
	received := w.in.Load()
	rep, err := c.call(&server.Frame{Type: "stats", ID: -1})
	if err != nil || rep.Type != "stats" || rep.ID != -1 {
		fmt.Fprintf(os.Stderr, "stats: %v %+v\n", err, rep)
		return false
	}
	got := statsWords(rep)
	sent := w.out.Load() - want.unread
	ok := got["evals"] == want.evals && got["snapshots"] == want.snapshots && got["restores"] == want.restores &&
		got["bytes_in"] == sent && got["bytes_out"] == received
	if !ok {
		fmt.Fprintf(os.Stderr, "stats mismatch (daemon/client): evals %d/%d snapshots %d/%d restores %d/%d bytes_in %d/%d bytes_out %d/%d\n",
			got["evals"], want.evals, got["snapshots"], want.snapshots, got["restores"], want.restores,
			got["bytes_in"], sent, got["bytes_out"], received)
	}
	return ok
}

// checkReply compares a reply with an operation's oracle.
func checkReply(op *esdOp, id int64, rep *server.Frame) bool {
	if rep.ID != id || rep.Stdout != op.stdout || rep.Stderr != "" {
		return false
	}
	switch op.kind {
	case opEvalError:
		return rep.Type == "error" && slices.Equal(rep.Exception, op.exc)
	default:
		return rep.Type == "result" && (op.value == nil || slices.Equal(rep.Value, op.value))
	}
}

// sample reads the daemon's CPU time (0 if it cannot be read); its
// allocations are not visible from outside.
func (d *daemon) sample() sample {
	c, _ := procCPU(d.pid())
	return sample{cpu: c}
}

// esdMetrics sets the daemon's memory metrics after a timed phase.
func esdMetrics(r *report, d *daemon) error {
	hwm, err := procStatusKB(d.pid(), "VmHWM")
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", "MB", hwm/1024)
	anon, err := procStatusKB(d.pid(), "RssAnon")
	if err != nil {
		return err
	}
	r.set("heap_live_mb", "MB", anon/1024)
	return nil
}

// clientAllocs sets the allocation metrics: the driving client's, whose
// frames go through the program's codec (the daemon's Go heap is not
// visible from outside it).
func clientAllocs(r *report, m0, m1 *runtime.MemStats, ops int) {
	r.set("allocs_per_op", "count", float64(m1.Mallocs-m0.Mallocs)/float64(ops))
	r.set("alloc_bytes_per_op", "bytes", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(ops))
}

// serialSession is esd-serial's client state.
type serialSession struct {
	d      *daemon
	w      *wire
	c      *client
	ops    []esdOp
	id     int64
	image  string        // the last snap's image
	width  time.Duration // the timed phase's window
	counts expectCounts
	tr     *tracer                                          // traced runs: spans around write and read
	record func(sent, got *server.Frame, rtt time.Duration) // traced runs record the frames
}

func (s *serialSession) op(i int) (time.Duration, bool) {
	op := &s.ops[i]
	if op.kind == opMalformed {
		return s.malformed(op)
	}
	s.id++
	f := &server.Frame{ID: s.id}
	switch op.kind {
	case opEval, opEvalError:
		f.Type, f.Src = "eval", op.src
		s.counts.evals++
	case opSnap:
		f.Type = "snap"
		s.counts.snapshots++
	case opRestore:
		f.Type, f.Image = "restore", s.image
		s.counts.restores++
	}
	t0 := time.Now()
	var rep *server.Frame
	var err error
	if s.tr != nil {
		s.tr.op++
		root := s.tr.begin(spOp, -1)
		sp := s.tr.begin(spWireWrite, root)
		err = s.c.fw.Write(f)
		s.tr.end(sp)
		if err == nil {
			sp = s.tr.begin(spWireRead, root)
			rep, err = s.c.fr.Read()
			s.tr.end(sp)
		}
		s.tr.end(root)
	} else {
		rep, err = s.c.call(f)
	}
	d := time.Since(t0)
	if err != nil {
		return d, false
	}
	if s.record != nil {
		s.record(f, rep, d)
	}
	switch op.kind {
	case opSnap:
		s.image = rep.Image
		return d, rep.Type == "snap" && rep.ID == s.id && rep.Image != ""
	case opRestore:
		return d, rep.Type == "restore" && rep.ID == s.id && rep.True
	}
	return d, checkReply(op, s.id, rep)
}

// malformed sends one malformed line and then a valid eval on a
// connection of its own.  The right answer is an error frame for the
// line and then the eval's result.
func (s *serialSession) malformed(op *esdOp) (time.Duration, bool) {
	t0 := time.Now()
	conn, err := net.Dial("unix", s.d.sock)
	if err != nil {
		return time.Since(t0), false
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	c := s.w.client(conn)
	bad := []byte(malformedLine + "\n")
	n, _ := conn.Write(bad)
	s.w.out.Add(int64(n))
	evalStart := s.w.out.Load()
	if err := c.fw.Write(&server.Frame{Type: "eval", ID: 2, Src: op.src}); err != nil {
		return time.Since(t0), false
	}
	evalBytes := s.w.out.Load() - evalStart
	first, err1 := c.fr.Read()
	var second *server.Frame
	var err2 error
	if err1 == nil {
		second, err2 = c.fr.Read()
	}
	d := time.Since(t0)
	if err2 == nil && second != nil && second.Type == "result" {
		s.counts.evals++
	} else {
		// The daemon never read the eval line.
		s.counts.unread += evalBytes
	}
	// No bye: a reply to it would be bytes this client never reads.
	return d, err1 == nil && err2 == nil && first.Type == "error" && checkReply(op, 2, second)
}

func serialSetup(e *env) (*serialSession, float64, error) {
	w := &wire{}
	d, setup, err := daemonSetup(e, false, w)
	if err != nil {
		return nil, 0, err
	}
	conn, err := net.Dial("unix", d.sock)
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	conn.SetDeadline(runDeadline(e))
	s := &serialSession{d: d, w: w, c: w.client(conn), ops: serialRound(e.seed)}
	s.counts.evals = 1 // the readiness eval
	src, _, _ := esdSetup(e.seed)
	s.id++
	s.counts.evals++
	if rep, err := s.c.call(&server.Frame{Type: "eval", ID: s.id, Src: src}); err != nil || rep.Type != "result" {
		s.close()
		return nil, 0, fmt.Errorf("session set-up: %v %+v", err, rep)
	}
	return s, setup, nil
}

// close ends the session and stops the daemon.  The bye is a courtesy:
// the drain that follows ends the session either way.
func (s *serialSession) close() error {
	s.c.fw.Write(&server.Frame{Type: "bye"})
	s.c.conn.Close()
	return s.d.stop()
}

func runESDSerial(e *env, trace bool) (*report, error) {
	r := &report{Correct: true}
	s, setup, err := serialSetup(e)
	if err != nil {
		return nil, err
	}
	n, w := warmRounds(warmUp, len(s.ops), s.op)
	s.width = windowFor(n, w)
	if trace {
		return traceSerial(e, r, s, n, w)
	}
	if _, err := s.timed(r, e.seconds, capFor(n, w, e.seconds)); err != nil {
		s.close()
		return nil, err
	}
	r.Correct = r.Correct && checkStats(s.c, s.w, s.counts)
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("esd exit: %w", err)
	}
	r.set("setup_s", "s", setup)
	return r, nil
}

// timed runs esd-serial's timed phase, sets its end-to-end metrics and
// returns the p50.
func (s *serialSession) timed(r *report, d time.Duration, capHint int) (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	p := runRounds(d, s.width, len(s.ops), capHint, s.d.sample, s.op)
	runtime.ReadMemStats(&m1)
	if err := esdMetrics(r, s.d); err != nil {
		return 0, err
	}
	clientAllocs(r, &m0, &m1, p.attempted)
	return p.latencyMetrics(r), nil
}

// pipeWindow is the window each esd-pipelined connection asks for and
// keeps full.
const pipeWindow = 8

// pipeConns is the number of esd-pipelined connections: one per
// processor the benchmark allows itself.
const pipeConns = gomaxprocs

// pipeConn is one esd-pipelined connection and its record.
type pipeConn struct {
	c         *client
	m         *meter
	attempted int
	failed    int
	evals     int64
	violation error // a reply to an id not outstanding, or a lost reply
}

// pump keeps the window full of tiny evals until d has passed, stopping
// at a round boundary, and waits for every reply.
func (pc *pipeConn) pump(ops []esdOp, start time.Time, d time.Duration, record func(sent, got *server.Frame, rtt time.Duration)) {
	var sentAt [pipeWindow]time.Time
	var outstanding [pipeWindow]int64
	var sentFrames [pipeWindow]*server.Frame
	var next int64 = 1
	send := func() error {
		op := &ops[int(next-1)%len(ops)]
		f := &server.Frame{Type: "eval", ID: next, Src: op.src}
		slot := next % pipeWindow
		sentAt[slot], outstanding[slot], sentFrames[slot] = time.Now(), next, f
		next++
		pc.evals++
		return pc.c.fw.Write(f)
	}
	for k := 0; k < pipeWindow; k++ {
		if err := send(); err != nil {
			pc.violation = err
			return
		}
	}
	for inflight := pipeWindow; inflight > 0; inflight-- {
		rep, err := pc.c.fr.Read()
		now := time.Now()
		if err != nil {
			pc.violation = err
			return
		}
		slot := rep.ID % pipeWindow
		if rep.ID <= 0 || outstanding[slot] != rep.ID {
			pc.violation = fmt.Errorf("reply to id %d, which is not outstanding", rep.ID)
			return
		}
		outstanding[slot] = 0
		if record != nil {
			record(sentFrames[slot], rep, now.Sub(sentAt[slot]))
		}
		pc.attempted++
		ok := checkReply(&ops[int(rep.ID-1)%len(ops)], rep.ID, rep)
		pc.m.record(now, now.Sub(sentAt[slot]), ok)
		if !ok {
			pc.failed++
		}
		if now.Sub(start) < d || (next-1)%int64(len(ops)) != 0 {
			if err := send(); err != nil {
				pc.violation = err
				return
			}
			inflight++
		}
	}
}

// pipelined is esd-pipelined's state.
type pipelined struct {
	d     *daemon
	w     *wire
	conns []*pipeConn
	ops   []esdOp
	evals int64         // evals the daemon answered, the readiness eval included
	width time.Duration // the timed phase's window
}

func pipelinedSetup(e *env) (*pipelined, float64, error) {
	w := &wire{}
	d, setup, err := daemonSetup(e, true, w)
	if err != nil {
		return nil, 0, err
	}
	p := &pipelined{d: d, w: w, ops: tinyEvals(e.seed), evals: 1}
	for k := 0; k < pipeConns; k++ {
		conn, err := net.Dial("tcp", d.tcp)
		if err != nil {
			p.close()
			return nil, 0, err
		}
		conn.SetDeadline(runDeadline(e))
		c := w.client(conn)
		p.conns = append(p.conns, &pipeConn{c: c})
		rep, err := c.call(&server.Frame{Type: "hello", ID: -2, Window: pipeWindow})
		if err != nil || rep.Type != "hello" || rep.Window != pipeWindow || !rep.True {
			p.close()
			return nil, 0, fmt.Errorf("hello: %v %+v", err, rep)
		}
	}
	return p, setup, nil
}

func (p *pipelined) close() error {
	for _, pc := range p.conns {
		pc.c.fw.Write(&server.Frame{Type: "bye"})
		pc.c.conn.Close()
	}
	return p.d.stop()
}

// phase runs every connection's pump for d and merges their records.
func (p *pipelined) phase(d, width time.Duration, capHint int, record func(sent, got *server.Frame, rtt time.Duration)) (*phase, error) {
	var wg sync.WaitGroup
	start := time.Now()
	stop := sampler(start, width, p.d.sample)
	var mu sync.Mutex
	for _, pc := range p.conns {
		pc.m = newMeter(start, width, capHint/len(p.conns)+1)
		pc.attempted, pc.failed, pc.evals = 0, 0, 0
		wg.Add(1)
		go func(pc *pipeConn) {
			defer wg.Done()
			rec := record
			if rec != nil {
				rec = func(sent, got *server.Frame, rtt time.Duration) {
					mu.Lock()
					record(sent, got, rtt)
					mu.Unlock()
				}
			}
			pc.pump(p.ops, start, d, rec)
		}(pc)
	}
	wg.Wait()
	ph := &phase{elapsed: time.Since(start), width: width, samples: stop()}
	for _, pc := range p.conns {
		if pc.violation != nil {
			return nil, pc.violation
		}
		ph.attempted += pc.attempted
		ph.failed += pc.failed
		ph.meters = append(ph.meters, pc.m)
		p.evals += pc.evals
	}
	return ph, nil
}

func runESDPipelined(e *env, trace bool) (*report, error) {
	r := &report{Correct: true}
	p, setup, err := pipelinedSetup(e)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	warm, err := p.phase(warmUp, time.Second, 1<<16, nil)
	if err != nil {
		p.close()
		return nil, err
	}
	capHint := capFor(warm.attempted, time.Since(t0), e.seconds)
	p.width = windowFor(warm.attempted, time.Since(t0))
	if trace {
		return tracePipelined(e, r, p, capHint)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ph, err := p.phase(e.seconds, p.width, capHint, nil)
	if err != nil {
		p.close()
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	if err := esdMetrics(r, p.d); err != nil {
		p.close()
		return nil, err
	}
	clientAllocs(r, &m0, &m1, ph.attempted)
	ph.latencyMetrics(r)
	r.Correct = checkStats(p.conns[0].c, p.w, expectCounts{evals: p.evals})
	if err := p.close(); err != nil {
		return nil, fmt.Errorf("esd exit: %w", err)
	}
	r.set("setup_s", "s", setup)
	return r, nil
}
