package main

// The traced run.  Spans are recorded from the benchmark's own code around
// each call into a layer's public functions (the program itself carries
// no tracing), kept in memory, and written out when the run ends.  A
// layer's self time is its spans' durations minus the parts their child
// spans cover.  End-to-end numbers always come from untraced phases; the
// traced run measures an untraced phase first, and the difference between
// the two is the tracing overhead.

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"es/internal/analysis"
	"es/internal/cache"
	"es/internal/compile"
	"es/internal/core"
	"es/internal/image"
	"es/internal/server"
	"es/internal/syntax"
)

// Span names; spanLayer maps each to the layer its self time counts for.
const (
	spOp        = iota // one operation, the root of its spans
	spParse            // core.ParseCommand
	spParseVet         // syntax.Parse + syntax.Rewrite for vetting
	spEnv              // analysis.EnvFromInterp
	spCheck            // analysis.AnalyzeBlock
	spEval             // core.Interp.EvalBlock
	spCompile          // compile.Compile, in a side call
	spFork             // core.Interp.Fork, in a side call
	spCapture          // image.Capture
	spImgEncode        // image.Image.Encode
	spImgDecode        // image.Decode
	spRestore          // image.Image.Restore
	spFrameEnc         // server.FrameWriter.Write
	spFrameDec         // server.FrameReader.Read
	spWireWrite        // a client frame write to the daemon
	spWireRead         // waiting for and reading the daemon's reply
	nSpanNames
)

var spanNames = [nSpanNames]string{"op", "syntax.parse", "syntax.parse_vet", "analysis.env", "analysis.check",
	"core.eval", "compile.compile", "core.fork", "image.capture", "image.encode", "image.decode", "image.restore",
	"server.encode", "server.decode", "wire.write", "wire.read"}

var spanLayer = [nSpanNames]string{"op", "syntax", "syntax", "analysis", "analysis",
	"core", "compile", "core", "image", "image", "image", "image", "server", "server", "wire", "wire"}

// opLayers lists the layers whose self time inside operations is
// reported; "op" is the benchmark's own bookkeeping between the spans.
var opLayers = []string{"syntax", "analysis", "core", "op"}

type span struct {
	name       uint8
	parent     int32 // index of the parent span; -1 for a root
	op         int32 // operation the span belongs to
	start, end int64 // ns since the tracer started
}

// maxSpans bounds the spans one run keeps (about 24 MB).
const maxSpans = 1 << 20

// tracer records spans.  It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	op    int32
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) full() bool { return len(t.spans) >= maxSpans-64 }

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name int, parent int32) int32 {
	t.spans = append(t.spans, span{name: uint8(name), parent: parent, op: t.op, start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = int64(time.Since(t.t0)) }

// analysis of a finished trace.
type traceSums struct {
	total     [nSpanNames]int64 // ns per span name
	count     [nSpanNames]int
	layerSelf map[string]int64 // self ns of spans inside operations, per layer
	opDur     []float64        // µs per operation root
	childSum  []float64        // µs of each root covered by its children
}

func (t *tracer) sums() *traceSums {
	s := &traceSums{layerSelf: map[string]int64{}}
	covered := make([]int64, len(t.spans))
	for _, sp := range t.spans {
		if sp.parent >= 0 {
			covered[sp.parent] += sp.end - sp.start
		}
	}
	inOp := make([]bool, len(t.spans))
	for i, sp := range t.spans {
		d := sp.end - sp.start
		self := d - covered[i]
		s.total[sp.name] += d
		s.count[sp.name]++
		inOp[i] = sp.name == spOp || (sp.parent >= 0 && inOp[sp.parent])
		if inOp[i] {
			s.layerSelf[spanLayer[sp.name]] += self
		}
		if sp.name == spOp {
			s.opDur = append(s.opDur, float64(d)/1e3)
			s.childSum = append(s.childSum, float64(covered[i])/1e3)
		}
	}
	return s
}

// write stores the spans as tab-separated lines: index, name, parent,
// op, start and end in ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "#index\tname\tparent\top\tstart_ns\tend_ns")
	for i, sp := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, spanNames[sp.name], sp.parent, sp.op, sp.start, sp.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// feed is an in-memory stream for the codec probes: frames are written
// into it and read back out.  It never reports end of stream, because a
// FrameReader's scanner stops for good at the first io.EOF.
type feed struct{ b bytes.Buffer }

func (f *feed) Write(p []byte) (int, error) { return f.b.Write(p) }
func (f *feed) Read(p []byte) (int, error) {
	if f.b.Len() == 0 {
		return 0, nil
	}
	return f.b.Read(p)
}

// probes are the side calls of a traced run and what they counted.
type probes struct {
	tr       *tracer
	ops      int             // operations traced
	instrs   int64           // compiled instructions over all side compiles
	frames   []*server.Frame // the first frames through the codec probe
	wire     int64           // encoded frame bytes (script workloads) or client-counted bytes (esd)
	imgBytes int64
	images   int
	feed     *feed
	fw       *server.FrameWriter
	fr       *server.FrameReader
}

func newProbes(tr *tracer) *probes {
	p := &probes{tr: tr, feed: &feed{}}
	p.fw = server.NewFrameWriter(p.feed)
	p.fr = server.NewFrameReader(p.feed)
	return p
}

func countInstrs(seq compile.Seq) int64 {
	n := int64(len(seq))
	for k := range seq {
		n += countInstrs(seq[k].Seq) + countInstrs(seq[k].Body.Seq)
	}
	return n
}

// compileSide compiles b afresh, outside the compile cache, counting the
// instructions of its unit and of every nested unit.
func (p *probes) compileSide(b *syntax.Block) {
	sp := p.tr.begin(spCompile, -1)
	u, err := compile.Compile(b, func(_ *syntax.Block, nu *compile.Unit) {
		if nu != nil {
			p.instrs += countInstrs(nu.Seq)
		}
	})
	p.tr.end(sp)
	if err == nil {
		p.instrs += countInstrs(u.Seq)
	}
}

// analyzeSide vets b against in's registries, as `esd -vet` would.
func (p *probes) analyzeSide(in *core.Interp, b *syntax.Block, parent int32) {
	sp := p.tr.begin(spEnv, parent)
	env := analysis.EnvFromInterp(in)
	p.tr.end(sp)
	sp = p.tr.begin(spCheck, parent)
	analysis.AnalyzeBlock(b, analysis.Options{Env: env})
	p.tr.end(sp)
}

// codec encodes f with the program's FrameWriter and decodes it again
// with its FrameReader.  Neither can fail on a Frame and an in-memory
// feed.
func (p *probes) codec(f *server.Frame) {
	if len(p.frames) < maxFrames {
		p.frames = append(p.frames, f)
	}
	sp := p.tr.begin(spFrameEnc, -1)
	p.fw.Write(f)
	p.tr.end(sp)
	p.wire += int64(p.feed.b.Len())
	sp = p.tr.begin(spFrameDec, -1)
	p.fr.Read()
	p.tr.end(sp)
}

// stateSide forks in and takes it through an image round trip, restoring
// onto a spawned copy; only the cost is wanted, not the fork.
func (p *probes) stateSide(in *core.Interp) {
	sp := p.tr.begin(spFork, -1)
	in.Fork()
	p.tr.end(sp)
	sp = p.tr.begin(spCapture, -1)
	img := image.Capture(in, nil)
	p.tr.end(sp)
	p.imageRoundTrip(img, in.Spawn())
}

// imageRoundTrip encodes and decodes img and restores it onto dst.
func (p *probes) imageRoundTrip(img *image.Image, dst *core.Interp) {
	sp := p.tr.begin(spImgEncode, -1)
	data := img.Encode()
	p.tr.end(sp)
	sp = p.tr.begin(spImgDecode, -1)
	dec, err := image.Decode(data)
	p.tr.end(sp)
	if err != nil {
		return
	}
	sp = p.tr.begin(spRestore, -1)
	dec.Restore(dst)
	p.tr.end(sp)
	p.imgBytes += int64(len(data))
	p.images++
}

// tracedEval runs src on s the way Shell.Run does, with a span around
// the parse and one around the evaluation, under the operation's root.
func (p *probes) tracedEval(s *shell, src string, root int32) (*syntax.Block, core.List, error) {
	s.out.Reset()
	s.errb.Reset()
	sp := p.tr.begin(spParse, root)
	b, err := core.ParseCommand(src)
	p.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = p.tr.begin(spEval, root)
	res, err := s.in.EvalBlock(s.sh.Context().NonTail(), b, nil)
	p.tr.end(sp)
	return b, res, err
}

// tracedOp runs operation i of a round under the tracer and reports
// whether its answer was right.
type tracedOp func(i int) bool

// hotTraced is script-hot's traced operation: the operation itself, then
// side calls that compile and vet its block and pass its request and
// reply through the frame codec.
func hotTraced(s *shell, cases []scriptCase, p *probes) tracedOp {
	return func(i int) bool {
		c := &cases[i]
		root := p.tr.begin(spOp, -1)
		b, res, err := p.tracedEval(s, c.src, root)
		p.tr.end(root)
		ok := s.check(c, err)
		if b != nil {
			p.sides(s, b, c.src, res)
		}
		return ok
	}
}

// sides runs the per-operation side calls of an operation that does not
// vet or speak the wire protocol itself.
func (p *probes) sides(s *shell, b *syntax.Block, src string, res core.List) {
	p.compileSide(b)
	p.analyzeSide(s.in, b, -1)
	id := int64(p.tr.op)
	p.codec(&server.Frame{Type: "eval", ID: id, Src: src})
	p.codec(&server.Frame{Type: "result", ID: id, Value: res.Strings(), True: res.True(), Stdout: s.out.String(), Stderr: s.errb.String(), MS: 0.05})
}

// coldTraced is script-cold's traced operation: the vet split into its
// parse, environment snapshot and check, then the parse and evaluation.
func coldTraced(c *coldShell, p *probes) tracedOp {
	return func(i int) bool {
		t := &c.tpls[i]
		id := c.nextID()
		src := t.src.fill(id)
		before := cacheByName(c.in.CacheStats(), "parse")
		root := p.tr.begin(spOp, -1)
		sp := p.tr.begin(spParseVet, root)
		vb, perr := syntax.Parse(src)
		var blk *syntax.Block
		if perr == nil {
			blk, _ = syntax.Rewrite(vb).(*syntax.Block)
		}
		p.tr.end(sp)
		vetErrs := 1
		if blk != nil {
			sp = p.tr.begin(spEnv, root)
			env := analysis.EnvFromInterp(c.in)
			p.tr.end(sp)
			sp = p.tr.begin(spCheck, root)
			vetErrs = analysis.AnalyzeBlock(blk, analysis.Options{Env: env}).Errors()
			p.tr.end(sp)
		}
		b, res, err := p.tracedEval(c.shell, src, root)
		p.tr.end(root)
		after := cacheByName(c.in.CacheStats(), "parse")
		ok := vetErrs == 0 && err == nil && c.errb.Len() == 0 && t.stdout.matches(c.out.Bytes(), id) && after.Hits == before.Hits
		if b != nil {
			p.compileSide(b)
			p.codec(&server.Frame{Type: "eval", ID: int64(p.tr.op), Src: src})
			p.codec(&server.Frame{Type: "result", ID: int64(p.tr.op), Value: res.Strings(), Stdout: c.out.String(), MS: 0.05})
		}
		return ok
	}
}

// cacheDelta is the parse and compile caches' movement over a phase.
type cacheDelta struct{ before, after []cache.Stats }

func (cd *cacheDelta) set(r *report) {
	for _, name := range []string{"parse", "compile"} {
		b, a := cacheByName(cd.before, name), cacheByName(cd.after, name)
		hits, misses := a.Hits-b.Hits, a.Misses-b.Misses
		ratio := 0.0
		if hits+misses > 0 {
			ratio = float64(hits) / float64(hits+misses)
		}
		r.set("cache."+name+"_hit_ratio", "ratio", ratio)
		r.set("cache."+name+"_entries", "count", float64(a.Entries))
	}
}

// inProcess runs the traced in-process phase over round operations on s:
// traced operations plus, once a round, the fork and image side calls.
// It sets the syntax, cache, compile, analysis, core and image metrics.
func inProcess(r *report, s *shell, d time.Duration, roundLen int, p *probes, op tracedOp) (attempted, failed int) {
	tr := p.tr
	cd := &cacheDelta{before: s.in.CacheStats()}
	a0 := s.in.Alloc
	s.in.Alloc.Trace = true
	start := time.Now()
	for time.Since(start) < d && !tr.full() {
		for i := 0; i < roundLen; i++ {
			tr.op = int32(attempted)
			if !op(i) {
				failed++
			}
			attempted++
		}
		tr.op = int32(attempted - 1)
		p.stateSide(s.in)
	}
	s.in.Alloc.Trace = false
	cd.after = s.in.CacheStats()
	cd.set(r)
	a1 := s.in.Alloc
	p.ops = attempted
	n := float64(attempted)
	r.set("core.commands_per_op", "count", float64(a1.Commands-a0.Commands)/n)
	r.set("core.bindings_per_op", "count", float64(a1.Bindings-a0.Bindings)/n)
	r.set("core.closures_per_op", "count", float64(a1.Closures-a0.Closures)/n)
	r.set("core.terms_per_op", "count", float64(a1.Terms-a0.Terms)/n)
	ts := tr.sums()
	perOp := func(name int) float64 { return float64(ts.total[name]) / 1e3 / n }
	mean := func(name int) float64 {
		if ts.count[name] == 0 {
			return 0
		}
		return float64(ts.total[name]) / 1e3 / float64(ts.count[name])
	}
	r.set("syntax.parse_us_per_op", "us", perOp(spParse))
	r.set("compile.compile_us_per_op", "us", perOp(spCompile))
	r.set("compile.instrs_per_op", "count", float64(p.instrs)/n)
	r.set("analysis.env_us_per_op", "us", perOp(spEnv))
	r.set("analysis.check_us_per_op", "us", perOp(spCheck))
	r.set("core.eval_us_per_op", "us", perOp(spEval))
	r.set("core.fork_us", "us", mean(spFork))
	r.set("image.capture_us", "us", mean(spCapture))
	r.set("image.encode_us", "us", mean(spImgEncode))
	r.set("image.decode_us", "us", mean(spImgDecode))
	r.set("image.restore_us", "us", mean(spRestore))
	if p.images > 0 {
		r.set("image.bytes", "bytes", float64(p.imgBytes)/float64(p.images))
	}
	return attempted, failed
}

// evalAllocs measures the Go allocations of EvalBlock alone, with the
// memory statistics read around whole rounds of pre-parsed blocks.  The
// answers were checked in the timed phases, so results are not kept.
func evalAllocs(r *report, s *shell, srcs []string, rounds int) {
	blocks := make([]*syntax.Block, 0, len(srcs))
	for _, src := range srcs {
		if b, err := core.ParseCommand(src); err == nil {
			blocks = append(blocks, b)
		}
	}
	ctx := s.sh.Context().NonTail()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := 0; k < rounds; k++ {
		for _, b := range blocks {
			s.out.Reset()
			s.errb.Reset()
			s.in.EvalBlock(ctx, b, nil)
		}
	}
	runtime.ReadMemStats(&m1)
	r.set("core.allocs_per_op", "count", float64(m1.Mallocs-m0.Mallocs)/float64(rounds*len(blocks)))
}

// codecAllocs measures the codec's Go allocations per frame over frames,
// with the memory statistics read around the whole replay.
func codecAllocs(r *report, frames []*server.Frame) {
	if len(frames) == 0 {
		return
	}
	fd := &feed{}
	fw, fr := server.NewFrameWriter(fd), server.NewFrameReader(fd)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, f := range frames {
		fw.Write(f)
		fr.Read()
	}
	runtime.ReadMemStats(&m1)
	r.set("server.codec_allocs_per_frame", "count", float64(m1.Mallocs-m0.Mallocs)/float64(len(frames))/2)
}

// traceSummary sets the codec, self-time and overhead metrics and writes
// the spans out, extra (a wire phase's spans) after tr's.  p50 is the
// untraced phase's latency median and tracedP50 the traced one's; 0
// takes it from tr's operations.
func traceSummary(e *env, name string, r *report, tr *tracer, p50, tracedP50 float64, extra []span) {
	ts := tr.sums()
	if frames := float64(ts.count[spFrameEnc]); frames > 0 {
		r.set("server.encode_us_per_frame", "us", float64(ts.total[spFrameEnc])/1e3/frames)
		r.set("server.decode_us_per_frame", "us", float64(ts.total[spFrameDec])/1e3/float64(ts.count[spFrameDec]))
	}
	n := float64(len(ts.opDur))
	for _, l := range opLayers {
		r.set("trace.self_"+l+"_us_per_op", "us", float64(ts.layerSelf[l])/1e3/n)
	}
	if tracedP50 == 0 {
		tracedP50 = median(append([]float64(nil), ts.opDur...))
	}
	r.set("trace.op_p50_us", "us", tracedP50)
	r.set("trace.untraced_p50_us", "us", p50)
	r.set("trace.overhead_pct", "%", 100*(tracedP50-p50)/p50)
	r.set("trace.layer_sum_pct_of_p50", "%", 100*median(ts.childSum)/p50)
	off := int32(len(tr.spans))
	for _, sp := range extra {
		if sp.parent >= 0 {
			sp.parent += off
		}
		tr.spans = append(tr.spans, sp)
	}
	r.set("trace.spans", "count", float64(len(tr.spans)))
	if err := tr.write(traceFile(e, name)); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
	}
}

// traceScript is the traced run of a script workload: an untraced phase
// for the overhead baseline, then the traced phase, the allocation
// replays and the TCP probe.
func traceScript(e *env, name string, r *report, s *shell, roundLen int, op opFunc, n int, w time.Duration,
	p *probes, top tracedOp, srcs []string, evalRounds int) (*report, error) {
	half := e.seconds / 2
	base := &report{}
	p50 := scriptE2E(base, half, windowFor(n, w), roundLen, capFor(n, w, half), op)
	r.Attempted, r.Failed = base.Attempted, base.Failed
	attempted, failed := inProcess(r, s, half, roundLen, p, top)
	tr := p.tr
	r.Attempted += attempted
	r.Failed += failed
	evalAllocs(r, s, srcs, evalRounds)
	codecAllocs(r, p.frames)
	r.set("server.wire_bytes_per_op", "bytes", float64(p.wire)/float64(p.ops))
	ts := tr.sums()
	r.set("server.eval_us_per_op", "us", float64(ts.total[spEval])/1e3/float64(p.ops))
	r.set("server.outside_eval_us_per_op", "us", float64(ts.total[spFrameEnc]+ts.total[spFrameDec])/1e3/float64(p.ops))
	if err := tcpProbe(e, r, nil, nil); err != nil {
		return nil, err
	}
	traceSummary(e, name, r, tr, p50, 0, nil)
	return r, nil
}

// tcpProbeRounds is how many serial round trips each transport gets.
const tcpProbeRounds = 400

// tcpProbe times serial round trips of one tiny eval to one daemon over
// unix and over TCP, alternating, and reports the difference of the
// medians.  A daemon with a TCP listener is started when d is nil;
// otherwise the probe's bytes count into d's clients' w.
func tcpProbe(e *env, r *report, d *daemon, w *wire) error {
	if d == nil {
		w = &wire{}
		var err error
		if d, _, err = startDaemon(e, 99, true, w); err != nil {
			return err
		}
		defer d.stop()
	}
	uc, err := net.Dial("unix", d.sock)
	if err != nil {
		return err
	}
	defer uc.Close()
	tc, err := net.Dial("tcp", d.tcp)
	if err != nil {
		return err
	}
	defer tc.Close()
	uc.SetDeadline(time.Now().Add(30 * time.Second))
	tc.SetDeadline(time.Now().Add(30 * time.Second))
	cs := []*client{w.client(uc), w.client(tc)}
	rtts := [2][]float64{}
	for k := 0; k < tcpProbeRounds; k++ {
		for j, c := range cs {
			t0 := time.Now()
			rep, err := c.call(&server.Frame{Type: "eval", ID: int64(k + 1), Src: "result x"})
			if err != nil || rep.Type != "result" {
				return fmt.Errorf("tcp probe: %v %+v", err, rep)
			}
			rtts[j] = append(rtts[j], us(time.Since(t0)))
		}
	}
	unix, tcp := median(rtts[0]), median(rtts[1])
	r.set("frontend.unix_rtt_us", "us", unix)
	r.set("frontend.tcp_extra_rtt_us", "us", tcp-unix)
	return nil
}

// maxFrames bounds the frames a traced run keeps for the codec replays.
const maxFrames = 40000

// wireRecord collects an esd workload's frames and reply times during a
// traced wire phase.
type wireRecord struct {
	frames []*server.Frame
	evalUS float64 // sum of the replies' ms, in µs
	evals  int
	rttUS  float64 // sum of those evals' round trips
}

func (wr *wireRecord) add(sent, got *server.Frame, rtt time.Duration) {
	if len(wr.frames) < maxFrames {
		wr.frames = append(wr.frames, sent, got)
	}
	if sent.Type == "eval" {
		wr.evalUS += got.MS * 1e3
		wr.rttUS += us(rtt)
		wr.evals++
	}
}

// replayFrames passes the recorded frames through the codec probe.
func replayFrames(p *probes, frames []*server.Frame) {
	for k, f := range frames {
		p.tr.op = int32(k / 2)
		p.codec(f)
	}
}

// esdSources lists the eval sources of an esd workload's round.
func esdSources(ops []esdOp) []string {
	var srcs []string
	for _, op := range ops {
		if op.kind == opEval || op.kind == opEvalError {
			srcs = append(srcs, op.src)
		}
	}
	return srcs
}

// esdInProcess replays an esd round in this process on a shell brought to
// the session's state: evals through the traced parse and eval, snap and
// restore through the image layer.
func esdInProcess(e *env, r *report, d time.Duration, setupSrc string, ops []esdOp) (*probes, *shell, error) {
	s, err := newShell(e.work)
	if err != nil {
		return nil, nil, err
	}
	if setupSrc != "" {
		if _, err := s.run(setupSrc); err != nil {
			return nil, nil, err
		}
	}
	var snap *image.Image
	p := newProbes(newTracer())
	op := func(i int) bool {
		op := &ops[i]
		switch op.kind {
		case opSnap:
			sp := p.tr.begin(spCapture, -1)
			snap = image.Capture(s.in, nil)
			p.tr.end(sp)
		case opRestore:
			if snap != nil {
				p.imageRoundTrip(snap, s.in)
			}
		case opEval, opEvalError, opMalformed:
			root := p.tr.begin(spOp, -1)
			b, _, _ := p.tracedEval(s, op.src, root)
			p.tr.end(root)
			if b != nil {
				p.compileSide(b)
				p.analyzeSide(s.in, b, -1)
			}
		}
		return true
	}
	inProcess(r, s, d, len(ops), p, op)
	return p, s, nil
}

func traceSerial(e *env, r *report, s *serialSession, n int, w time.Duration) (*report, error) {
	third := e.seconds / 3
	base := &report{}
	p50, err := s.timed(base, third, capFor(n, w, third))
	if err != nil {
		s.close()
		return nil, err
	}
	r.Attempted, r.Failed = base.Attempted, base.Failed

	// The traced wire phase: spans around each frame write and reply read.
	wt := newTracer()
	wr := &wireRecord{}
	s.tr, s.record = wt, wr.add
	ph := runRounds(third, s.width, len(s.ops), capFor(n, w, third), s.d.sample, s.op)
	s.tr, s.record = nil, nil
	r.Attempted += ph.attempted
	r.Failed += ph.failed
	r.Correct = checkStats(s.c, s.w, s.counts)
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("esd exit: %w", err)
	}
	r.set("server.wire_bytes_per_op", "bytes", float64(s.w.in.Load()+s.w.out.Load())/float64(s.counts.evals+s.counts.snapshots+s.counts.restores))
	r.set("server.eval_us_per_op", "us", wr.evalUS/float64(wr.evals))
	r.set("server.outside_eval_us_per_op", "us", (wr.rttUS-wr.evalUS)/float64(wr.evals))
	wireP50 := median(ph.lat())

	setupSrc, _, _ := esdSetup(e.seed)
	p, sh, err := esdInProcess(e, r, third, setupSrc, s.ops)
	if err != nil {
		return nil, err
	}
	evalAllocs(r, sh, esdSources(s.ops), 2)
	replayFrames(p, wr.frames)
	codecAllocs(r, wr.frames)
	if err := tcpProbe(e, r, nil, nil); err != nil {
		return nil, err
	}
	traceSummary(e, "esd-serial", r, p.tr, p50, wireP50, wt.spans)
	return r, nil
}

func tracePipelined(e *env, r *report, pl *pipelined, capHint int) (*report, error) {
	third := e.seconds / 3
	base := &report{}
	ph, err := pl.phase(third, pl.width, capHint, nil)
	if err != nil {
		pl.close()
		return nil, err
	}
	p50 := ph.latencyMetrics(base)
	r.Attempted, r.Failed = base.Attempted, base.Failed

	// The traced wire phase records every frame pair; with two clients
	// sharing one recorder, no per-operation spans are kept.
	wr := &wireRecord{}
	ph, err = pl.phase(third, pl.width, capHint, wr.add)
	if err != nil {
		pl.close()
		return nil, err
	}
	r.Attempted += ph.attempted
	r.Failed += ph.failed
	wireP50 := median(ph.lat())
	r.set("server.wire_bytes_per_op", "bytes", float64(pl.w.in.Load()+pl.w.out.Load())/float64(pl.evals))
	evalUS := wr.evalUS / float64(wr.evals)
	r.set("server.eval_us_per_op", "us", evalUS)
	// With every window full, each session completes one eval per
	// (elapsed × sessions / evals); what of that is not evaluation is
	// spent outside it (codec, queue, wire, waiting for a processor).
	r.set("server.outside_eval_us_per_op", "us", us(ph.elapsed)*float64(len(pl.conns))/float64(ph.attempted)-evalUS)
	if err := tcpProbe(e, r, pl.d, pl.w); err != nil {
		pl.close()
		return nil, err
	}
	r.Correct = checkStats(pl.conns[0].c, pl.w, expectCounts{evals: pl.evals + tcpProbeRounds*2})
	if err := pl.close(); err != nil {
		return nil, fmt.Errorf("esd exit: %w", err)
	}

	p, sh, err := esdInProcess(e, r, third, "", pl.ops)
	if err != nil {
		return nil, err
	}
	evalAllocs(r, sh, esdSources(pl.ops), 2)
	replayFrames(p, wr.frames)
	codecAllocs(r, wr.frames)
	traceSummary(e, "esd-pipelined", r, p.tr, p50, wireP50, nil)
	return r, nil
}
