package main

// Seeded inputs for the four workloads, and the oracles that say what the
// program must answer for each of them.  Everything in this file is a
// pure function of the seed: the same seed gives the same scripts, the
// same frames and the same expected outputs (gen_test.go checks both).
// The oracles compute answers in Go from the generation parameters; no
// expected value is ever taken from a previous run of the program.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// gen is a seeded source of words and small parameters.
type gen struct{ r *rand.Rand }

func newGen(seed int64) *gen { return &gen{rand.New(rand.NewSource(seed))} }

const (
	consonants = "bcdfghjklmnpqrstvwxz"
	vowels     = "aeiou"
)

// reserved words are never generated, so no argument is ever mistaken
// for a keyword or a hook name by a reader of the scripts.
var reserved = map[string]bool{"local": true, "let": true, "for": true, "fn": true, "match": true}

// word returns a lowercase consonant-vowel word of 4 to 7 letters.
func (g *gen) word() string {
	for {
		n := 4 + g.r.Intn(4)
		b := make([]byte, n)
		for i := range b {
			if i%2 == 0 {
				b[i] = consonants[g.r.Intn(len(consonants))]
			} else {
				b[i] = vowels[g.r.Intn(len(vowels))]
			}
		}
		if w := string(b); !reserved[w] {
			return w
		}
	}
}

// words returns n distinct words.
func (g *gen) words(n int) []string {
	seen := map[string]bool{}
	out := make([]string, 0, n)
	for len(out) < n {
		w := g.word()
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// letter returns a consonant, used as a pattern prefix or suffix.
func (g *gen) letter() string { return string(consonants[g.r.Intn(len(consonants))]) }

// upper returns an uppercase tag of n letters; lowercase words never
// contain it, so `~~ PRE*SUF` extractions are unambiguous.
func (g *gen) upper(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('A' + g.r.Intn(26))
	}
	return string(b)
}

// withPrefix rewrites k of ws (at seeded positions) to start with p.
func (g *gen) withPrefix(ws []string, p string, k int) {
	for _, i := range g.r.Perm(len(ws))[:k] {
		ws[i] = p + ws[i][1:]
	}
}

func spaced(ws []string) string { return strings.Join(ws, " ") }

// scriptCase is one script-workload operation: the script and what it
// must print.
type scriptCase struct {
	family      string
	src         string
	stdout      string // exact expected standard output
	stderrLines int    // timing lines the %pipe spoof must print (0 = no stderr at all)
}

// listLib defines the lib/list.es-style list functions once, before any
// operation runs.  The operations only call them, so they leave the
// interpreter's state as they found it.
const listLib = `fn map f list {
	let (out = ) {
		for (x = $list)
			out = $out <>{$f $x}
		result $out
	}
}
fn filter pred list {
	let (out = ) {
		for (x = $list)
			if {$pred $x} {
				out = $out $x
			}
		result $out
	}
}
fn foldl f acc list {
	for (x = $list)
		acc = <>{$f $acc $x}
	result $acc
}
`

// pipeSpoof is the paper's Figure 1 %pipe profiler, bound with local so
// the hook is restored when the operation ends.
const pipeSpoof = `let (pipe = $fn-%pipe) local (fn-%pipe = @ first out in rest {
	if {~ $#out 0} {
		time $first
	} {
		$pipe {time $first} $out $in {%pipe $rest}
	}
}) `

// wordFreq is the Figure 1 pipeline; %s is the text file.
const wordFreq = `cat %s | tr -cs a-zA-Z0-9 '\012' | sort | uniq -c | sort -nr | sed 6q`

// smallFamilies are the script-hot families that need no file and print
// a few words; esd-serial reuses them as its small evals.
var smallFamilies = []string{"map", "filter", "foldl", "closure", "settor", "catch", "match", "extract", "richret"}

// smallCase builds one operation of the named family.
func (g *gen) smallCase(family string) scriptCase {
	// Every case has the same number of words, so the seed changes what
	// an operation computes but hardly what it costs.
	c := scriptCase{family: family}
	const n = 8
	ws := g.words(n)
	switch family {
	case "map":
		sfx := g.word()
		out := make([]string, n)
		for i, w := range ws {
			out[i] = w + "-" + sfx
		}
		c.src = fmt.Sprintf("echo <>{map @ x {result $x^-%s} %s}", sfx, spaced(ws))
		c.stdout = spaced(out) + "\n"
	case "filter":
		p := g.letter()
		g.withPrefix(ws, p, 3)
		var out []string
		for _, w := range ws {
			if strings.HasPrefix(w, p) {
				out = append(out, w)
			}
		}
		c.src = fmt.Sprintf("echo <>{filter @ x {~ $x %s*} %s}", p, spaced(ws))
		c.stdout = spaced(out) + "\n"
	case "foldl":
		s := g.word()
		c.src = fmt.Sprintf("echo <>{foldl @ acc x {result $acc^.^$x} %s %s}", s, spaced(ws))
		c.stdout = s + "." + strings.Join(ws, ".") + "\n"
	case "closure":
		k := g.upper(2)
		out := make([]string, n)
		for i, w := range ws {
			out[i] = w + k
		}
		c.src = fmt.Sprintf("let (acc = ) { let (add = @ x { acc = $acc $x^%s }) { for (w = %s) { $add $w }; echo $#acc $acc } }", k, spaced(ws))
		c.stdout = fmt.Sprintf("%d %s\n", n, spaced(out))
	case "settor":
		t := g.upper(1)
		c.src = fmt.Sprintf("local (v = ; seen = ; set-v = @ { seen = $seen $*; result $*^%s }) { for (x = %s) { v = $x }; echo $v $seen }", t, spaced(ws))
		c.stdout = ws[n-1] + t + " " + spaced(ws) + "\n"
	case "catch":
		p := g.letter()
		g.withPrefix(ws, p, 2+g.r.Intn(3))
		var ok, caught []string
		for _, w := range ws {
			if strings.HasPrefix(w, p) {
				caught = append(caught, w)
			} else {
				ok = append(ok, w)
			}
		}
		c.src = fmt.Sprintf("let (n = ; c = ) { for (i = %s) { catch @ e v { c = $c $v } { if {~ $i %s*} { throw bexc $i }; n = $n $i } }; echo $#n $#c $c }", spaced(ws), p)
		c.stdout = fmt.Sprintf("%d %d %s\n", len(ok), len(caught), spaced(caught))
	case "match":
		p, s := g.letter(), g.letter()
		g.withPrefix(ws, p, 2)
		for _, i := range g.r.Perm(n)[:2] {
			ws[i] = ws[i] + s
		}
		var out []string
		for _, w := range ws {
			switch {
			case strings.HasPrefix(w, p):
				out = append(out, w)
			case strings.HasSuffix(w, s):
				out = append(out, w+"-e")
			}
		}
		c.src = fmt.Sprintf("let (hits = ) { for (w = %s) { if {~ $w %s*} { hits = $hits $w } {~ $w *%s} { hits = $hits $w^-e } }; echo $hits }", spaced(ws), p, s)
		c.stdout = spaced(out) + "\n"
	case "extract":
		pre, suf := g.upper(2), g.upper(3)
		subj := make([]string, n)
		for i, w := range ws {
			subj[i] = pre + w + suf
		}
		c.src = fmt.Sprintf("let (out = ) { for (s = %s) { out = $out <={~~ $s %s*%s} }; echo $out }", spaced(subj), pre, suf)
		c.stdout = spaced(ws) + "\n"
	case "richret":
		p, a, b := g.word(), g.word(), g.word()
		c.src = fmt.Sprintf("let (mk = @ x { result @ y { result $x^$y } }; sw = @ a b { result $b $a }) { let (g = <={$mk %s}) { echo <={$g %s} <={$sw %s %s} <={$g %s} } }", p, ws[0], a, b, ws[1])
		c.stdout = fmt.Sprintf("%s%s %s %s %s%s\n", p, ws[0], b, a, p, ws[1])
	default:
		panic("unknown family " + family)
	}
	return c
}

// wordText is a seeded text for the Figure 1 pipeline: 40 distinct
// words, the six most frequent with distinct counts above every other
// word's, so the pipeline's top-six table has exactly one right answer
// whatever tie rule sort applies.
type wordText struct {
	text string
	top  string // the expected `uniq -c | sort -nr | sed 6q` table
}

func (g *gen) wordText() wordText {
	vocab := g.words(40)
	counts := make([]int, len(vocab))
	for i := range counts {
		if i < 6 {
			counts[i] = 30 - 4*i + g.r.Intn(3) // 30..32, 26..28, …, 10..12
		} else {
			counts[i] = 1 + g.r.Intn(8)
		}
	}
	var toks []string
	for i, w := range vocab {
		for k := 0; k < counts[i]; k++ {
			toks = append(toks, w)
		}
	}
	g.r.Shuffle(len(toks), func(i, j int) { toks[i], toks[j] = toks[j], toks[i] })
	seps := []string{" ", " ", " ", ", ", ". ", "\n", " -- "}
	var b strings.Builder
	for _, t := range toks {
		b.WriteString(t)
		b.WriteString(seps[g.r.Intn(len(seps))])
	}
	b.WriteString("\n")
	return wordText{text: b.String(), top: wordFreqTable(b.String())}
}

// wordFreqTable counts words in Go the way the Figure 1 pipeline does
// (maximal runs of [a-zA-Z0-9]) and renders the six most frequent as
// `uniq -c` prints them.
func wordFreqTable(text string) string {
	freq := map[string]int{}
	for _, w := range strings.FieldsFunc(text, func(r rune) bool {
		return !('a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9')
	}) {
		freq[w]++
	}
	type wc struct {
		w string
		n int
	}
	var all []wc
	for w, n := range freq {
		all = append(all, wc{w, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].w > all[j].w
	})
	var b strings.Builder
	for _, e := range all[:6] {
		fmt.Fprintf(&b, "%7d %s\n", e.n, e.w)
	}
	return b.String()
}

// hotCorpus is the script-hot input: eight cases of each small family,
// then the Figure 1 pipelines over the texts (even ones plain, odd ones
// under the %pipe spoof), in a seeded order.  texts[i] is read from
// files[i].
//
// A pipeline costs some forty small cases, so two in a round of 74 keep
// the p99 inside the pipelines' common latencies rather than in the tail
// of the rarest operation, where a host's bad minute weighs most.
func hotCorpus(seed int64, files []string) ([]scriptCase, []wordText) {
	g := newGen(seed)
	var cs []scriptCase
	for _, f := range smallFamilies {
		for k := 0; k < hotPerFamily; k++ {
			cs = append(cs, g.smallCase(f))
		}
	}
	texts := make([]wordText, len(files))
	for i, f := range files {
		texts[i] = g.wordText()
		pipe := fmt.Sprintf(wordFreq, f)
		c := scriptCase{family: "fig1", src: pipe, stdout: texts[i].top}
		if i%2 == 1 {
			c = scriptCase{family: "fig1-spoof", src: pipeSpoof + "{ " + pipe + " }", stdout: texts[i].top, stderrLines: 6}
		}
		cs = append(cs, c)
	}
	g.r.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	return cs, texts
}

// hotPerFamily and hotFiles set the script-hot round: eight cases of each
// small family and two Figure 1 pipelines, 74 operations.
const (
	hotPerFamily = 8
	hotFiles     = 2
)

// template is a text with holes, each filled with an operation's unique
// id.  Filling allocates one string; matching output against it
// allocates nothing.
type template []string

const hole = "\x00"

func (t template) fill(id string) string {
	n := 0
	for _, s := range t {
		n += len(s)
	}
	var b strings.Builder
	b.Grow(n + len(id)*(len(t)-1))
	for i, s := range t {
		if i > 0 {
			b.WriteString(id)
		}
		b.WriteString(s)
	}
	return b.String()
}

// matches reports whether out equals the template filled with id.
func (t template) matches(out []byte, id string) bool {
	for i, s := range t {
		if i > 0 {
			if len(out) < len(id) || string(out[:len(id)]) != id {
				return false
			}
			out = out[len(id):]
		}
		if len(out) < len(s) || string(out[:len(s)]) != s {
			return false
		}
		out = out[len(s):]
	}
	return len(out) == 0
}

// coldCase is one script-cold module: a script of scoped function
// definitions and a body that calls them, with holes for the operation's
// id so that no two operations ever run the same text.
type coldCase struct {
	src, stdout template
}

// coldModules returns the script-cold round: n modules of about 3 KB.
func coldModules(seed int64, n int) []coldCase {
	g := newGen(seed ^ 0x5ca1ab1e)
	out := make([]coldCase, n)
	for i := range out {
		out[i] = g.coldModule()
	}
	return out
}

// coldFn is one generated function and the Go model of what it returns.
type coldFn struct {
	kind int // 0 classify, 1 catcher, 2 extractor, 3 caller, 4 closure
	p, q string
	a, b int // caller: the callees
	tag  string
}

// eval models the function in Go.
func (f *coldFn) eval(fns []coldFn, args []string) []string {
	var out []string
	switch f.kind {
	case 0:
		for _, x := range args {
			switch {
			case strings.HasPrefix(x, f.p):
				out = append(out, x+"1")
			case strings.HasSuffix(x, f.q):
				out = append(out, "z"+x)
			}
		}
	case 1:
		for _, x := range args {
			if strings.HasPrefix(x, f.p) {
				out = append(out, x)
			} else {
				out = append(out, "ok")
			}
		}
	case 2:
		for _, x := range args {
			out = append(out, x[len(f.p):len(x)-len(f.q)])
		}
	case 3:
		out = append(fns[f.a].eval(fns, args), fns[f.b].eval(fns, args)...)
	case 4:
		for _, x := range args[:2] {
			out = append(out, f.tag+x)
		}
	}
	return out
}

// body renders the function's es definition; every id hole is part of a
// name, so the text is unique per operation.
func (f *coldFn) body(k int) string {
	// Each definition also carries a branch the body never takes (no
	// arguments), which the parser, compiler and analyzer still process.
	// The count is bound outside the condition's braces: a braced block
	// is a closure with a $* of its own.
	idle := fmt.Sprintf(`		let (nargs = $#*) {
			if {~ $nargs 0} {
				let (none = %s%d) {
					for (y = a b c) { none = $none $y }
					throw %s_err none $none
				}
			}
		}
`, hole, k, hole)
	switch f.kind {
	case 0:
		return fmt.Sprintf(`	fn-%s_f%d = @ {
%s		let (acc = ) {
			for (x = $*) {
				if {~ $x %s*} {
					acc = $acc $x^1
				} {~ $x *%s} {
					acc = $acc z^$x
				}
			}
			result $acc
		}
	}
`, hole, k, idle, f.p, f.q)
	case 1:
		return fmt.Sprintf(`	fn-%s_f%d = @ {
%s		let (n = ) {
			for (x = $*) {
				catch @ e v {
					n = $n $v
				} {
					if {~ $x %s*} {
						throw %s_err $x
					}
					n = $n ok
				}
			}
			result $n
		}
	}
`, hole, k, idle, f.p, hole)
	case 2:
		return fmt.Sprintf(`	fn-%s_f%d = @ {
%s		let (out = ) {
			for (s = $*) {
				out = $out <={~~ $s %s*%s}
			}
			result $out
		}
	}
`, hole, k, idle, f.p, f.q)
	case 3:
		return fmt.Sprintf(`	fn-%s_f%d = @ {
%s		result <={%s_f%d $*} <={%s_f%d $*}
	}
`, hole, k, idle, hole, f.a, hole, f.b)
	default:
		return fmt.Sprintf(`	fn-%s_f%d = @ a b {
%s		let (k = %s) {
			let (g = @ y { result $k^$y }) {
				result <={$g $a} <={$g $b}
			}
		}
	}
`, hole, k, idle, f.tag)
	}
}

func (g *gen) coldModule() coldCase {
	const nfn = 8
	fns := make([]coldFn, nfn)
	var src, want strings.Builder
	src.WriteString("local (\n")
	for k := range fns {
		f := &fns[k]
		f.kind = g.r.Intn(5)
		var plain []int // earlier functions that take plain words
		for j := 0; j < k; j++ {
			if fns[j].kind <= 1 {
				plain = append(plain, j)
			}
		}
		if f.kind == 3 && len(plain) == 0 {
			f.kind = 0
		}
		switch f.kind {
		case 0, 1:
			f.p, f.q = g.letter(), g.letter()
		case 2:
			f.p, f.q = g.upper(2), g.upper(2)
		case 3:
			f.a, f.b = plain[g.r.Intn(len(plain))], plain[g.r.Intn(len(plain))]
		case 4:
			f.tag = g.word()
		}
		src.WriteString(f.body(k))
	}
	src.WriteString(") {\n")
	for k := range fns {
		f := &fns[k]
		var args []string
		switch f.kind {
		case 2:
			for _, w := range g.words(3 + g.r.Intn(3)) {
				args = append(args, f.p+w+f.q)
			}
		case 4:
			args = g.words(2)
		default:
			args = g.words(4 + g.r.Intn(4))
			if f.kind == 3 {
				f0, f1 := &fns[f.a], &fns[f.b]
				args[0] = f0.p + args[0][1:]
				args[1] = f1.p + args[1][1:]
				args[2] = args[2] + f0.q
			} else {
				args[0] = f.p + args[0][1:]
				args[1] = args[1] + f.q
			}
		}
		fmt.Fprintf(&src, "\techo %s %d <={%s_f%d %s}\n", hole, k, hole, k, spaced(args))
		res := f.eval(fns, args)
		fmt.Fprintf(&want, "%s %d", hole, k)
		for _, r := range res {
			want.WriteString(" " + r)
		}
		want.WriteString("\n")
	}
	src.WriteString("}\n")
	return coldCase{src: strings.Split(src.String(), hole), stdout: strings.Split(want.String(), hole)}
}

// frame kinds of the esd-serial round.
const (
	opEval      = iota // eval answered by a result frame
	opEvalError        // eval answered by an error frame (uncaught exception)
	opSnap             // snap of the session's state
	opRestore          // restore of the last snap
	opMalformed        // a malformed line then an eval, on a connection of its own
)

// esdOp is one esd-serial operation and its expected answer.
type esdOp struct {
	kind   int
	src    string
	stdout string   // result/error stdout
	value  []string // opEval: the result value, when the script returns one
	exc    []string // opEvalError: the exception words
}

// esdSetup is evaluated once on the esd-serial session before timing:
// the list library and the two variables the snap/restore sequence
// mutates and reads back.
func esdSetup(seed int64) (src string, v1, v2 string) {
	g := newGen(seed ^ 0x0e5d)
	v1, v2 = g.word(), g.word()
	return listLib + fmt.Sprintf("bv1 = %s; bv2 = %s\n", v1, v2), v1, v2
}

// serialRound is the esd-serial round: 12 small evals from the script-hot
// families, 6 evals printing 1-16 KB, 3 evals ending in an uncaught
// exception, one snap → mutate → restore → read-back sequence (4 ops) and
// one malformed-line operation: 26 operations, whatever the seed.
func serialRound(seed int64) []esdOp {
	g := newGen(seed ^ 0x5e71a1)
	_, v1, v2 := esdSetup(seed)
	var ops []esdOp
	for k := 0; k < 12; k++ {
		c := g.smallCase(smallFamilies[g.r.Intn(len(smallFamilies))])
		ops = append(ops, esdOp{kind: opEval, src: c.src, stdout: c.stdout})
	}
	// Six seq evals print 1 KB to 16 KB: every number has four digits, so
	// the sizes are the same whatever the seed.
	for _, n := range []int{220, 600, 1100, 1700, 2400, 3200} {
		a := 1000 + g.r.Intn(6000)
		var b strings.Builder
		for i := a; i < a+n; i++ {
			fmt.Fprintf(&b, "%d\n", i)
		}
		ops = append(ops, esdOp{kind: opEval, src: fmt.Sprintf("seq %d %d", a, a+n-1), stdout: b.String()})
	}
	for k := 0; k < 3; k++ {
		w, x := g.word(), g.word()
		ops = append(ops, esdOp{kind: opEvalError, src: fmt.Sprintf("echo %s; throw bexc %s %s", w, w, x),
			stdout: w + "\n", exc: []string{"bexc", w, x}})
	}
	m1, m2 := g.word(), g.word()
	seqOps := []esdOp{
		{kind: opSnap},
		{kind: opEval, src: fmt.Sprintf("bv1 = %s; bv2 = %s; echo $bv1 $bv2", m1, m2), stdout: m1 + " " + m2 + "\n"},
		{kind: opRestore},
		{kind: opEval, src: "echo $bv1 $bv2", stdout: v1 + " " + v2 + "\n"},
	}
	w := g.word()
	ops = append(ops, esdOp{kind: opMalformed, src: "echo " + w, stdout: w + "\n"})
	g.r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	at := g.r.Intn(len(ops) + 1)
	return append(ops[:at], append(seqOps, ops[at:]...)...)
}

// malformedLine is the bad frame of the malformed-line operation: a
// truncated JSON object.
const malformedLine = `{"type":"eval","id":1,"src":"echo`

// tinyEvals are the esd-pipelined evals: 32 one-line scripts answered
// with a value or a short stdout.
func tinyEvals(seed int64) []esdOp {
	g := newGen(seed ^ 0x919e)
	ops := make([]esdOp, 32)
	for i := range ops {
		a, b := g.word(), g.word()
		switch i % 4 {
		case 0:
			ops[i] = esdOp{kind: opEval, src: "echo " + a, stdout: a + "\n"}
		case 1:
			ops[i] = esdOp{kind: opEval, src: fmt.Sprintf("result %s %s", a, b), value: []string{a, b}}
		case 2:
			ops[i] = esdOp{kind: opEval, src: fmt.Sprintf("echo %s^%s", a, b), stdout: a + b + "\n"}
		default:
			ops[i] = esdOp{kind: opEval, src: fmt.Sprintf("if {~ %s %s*} {echo y} {echo n}", a, a[:1]), stdout: "y\n"}
		}
	}
	return ops
}
