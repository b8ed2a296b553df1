package main

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

var fmtSscan = fmt.Sscan

// seventhCount is the seventh-highest word count of text.
func seventhCount(text string) int {
	freq := map[string]int{}
	for _, w := range strings.Fields(strings.NewReplacer(",", " ", ".", " ", "-", " ").Replace(text)) {
		freq[w]++
	}
	var ns []int
	for _, n := range freq {
		ns = append(ns, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ns)))
	return ns[6]
}

// The generator must give identical inputs for a given seed, and other
// inputs for another seed.
func TestGeneratorDeterministic(t *testing.T) {
	files := []string{"a", "b"}
	for _, seed := range []int64{1, 7, 1 << 40} {
		h1, t1 := hotCorpus(seed, files)
		h2, t2 := hotCorpus(seed, files)
		if !reflect.DeepEqual(h1, h2) || !reflect.DeepEqual(t1, t2) {
			t.Errorf("seed %d: hot corpus differs between two calls", seed)
		}
		if !reflect.DeepEqual(coldModules(seed, 8), coldModules(seed, 8)) {
			t.Errorf("seed %d: cold modules differ between two calls", seed)
		}
		if !reflect.DeepEqual(serialRound(seed), serialRound(seed)) {
			t.Errorf("seed %d: esd-serial round differs between two calls", seed)
		}
		if !reflect.DeepEqual(tinyEvals(seed), tinyEvals(seed)) {
			t.Errorf("seed %d: tiny evals differ between two calls", seed)
		}
	}
	a, _ := hotCorpus(1, files)
	b, _ := hotCorpus(2, files)
	if reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 2 gave the same hot corpus")
	}
}

// Every round has the same make-up whatever the seed, so the share of
// failed operations is the same in every run.
func TestRoundShape(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		cs, _ := hotCorpus(seed, make([]string, hotFiles))
		if len(cs) != hotPerFamily*len(smallFamilies)+hotFiles {
			t.Fatalf("seed %d: hot corpus has %d cases", seed, len(cs))
		}
		ops := serialRound(seed)
		kinds := map[int]int{}
		for _, op := range ops {
			kinds[op.kind]++
		}
		want := map[int]int{opEval: 20, opEvalError: 3, opSnap: 1, opRestore: 1, opMalformed: 1}
		if !reflect.DeepEqual(kinds, want) {
			t.Fatalf("seed %d: esd-serial round kinds %v, want %v", seed, kinds, want)
		}
		for i, op := range ops {
			if op.kind == opSnap && (i+3 >= len(ops) || ops[i+2].kind != opRestore) {
				t.Fatalf("seed %d: snap at %d not followed by mutate, restore, read-back", seed, i)
			}
		}
	}
}

func TestWordFreqTable(t *testing.T) {
	got := wordFreqTable("g a, b g. a--c g\nb a d e f g\n")
	want := "      4 g\n      3 a\n      2 b\n      1 f\n      1 e\n      1 d\n"
	if got != want {
		t.Errorf("wordFreqTable:\n%q\nwant\n%q", got, want)
	}
}

func TestWordTextHasOneAnswer(t *testing.T) {
	g := newGen(3)
	for k := 0; k < 20; k++ {
		wt := g.wordText()
		rows := strings.Split(strings.TrimSuffix(wt.top, "\n"), "\n")
		if len(rows) != 6 {
			t.Fatalf("table has %d rows", len(rows))
		}
		prev := 1 << 30
		for _, row := range rows {
			var n int
			var w string
			if _, err := fmtSscan(row, &n, &w); err != nil || n >= prev {
				t.Fatalf("top six counts not strictly decreasing: %q", wt.top)
			}
			prev = n
		}
		// Seventh place must be below sixth, so ties cannot reorder the table.
		if c7 := seventhCount(wt.text); c7 >= prev {
			t.Fatalf("seventh count %d reaches sixth %d", c7, prev)
		}
	}
}

func TestColdFnModels(t *testing.T) {
	fns := []coldFn{
		{kind: 0, p: "p", q: "q"},
		{kind: 1, p: "s"},
		{kind: 2, p: "AB", q: "CD"},
		{kind: 3, a: 0, b: 1},
		{kind: 4, tag: "tg"},
	}
	cases := []struct {
		fn   int
		args []string
		want []string
	}{
		{0, []string{"pa", "bq", "xx", "pq"}, []string{"pa1", "zbq", "pq1"}},
		{1, []string{"sa", "b", "sc"}, []string{"sa", "ok", "sc"}},
		{2, []string{"ABxCD", "AByyCD"}, []string{"x", "yy"}},
		{3, []string{"pa", "sb"}, []string{"pa1", "ok", "sb"}},
		{4, []string{"x", "y"}, []string{"tgx", "tgy"}},
	}
	for _, c := range cases {
		if got := fns[c.fn].eval(fns, c.args); !reflect.DeepEqual(got, c.want) {
			t.Errorf("kind %d on %v = %v, want %v", fns[c.fn].kind, c.args, got, c.want)
		}
	}
}

func TestTemplate(t *testing.T) {
	tp := template(strings.Split("echo \x00 a\x00b\n", hole))
	if got := tp.fill("c1"); got != "echo c1 ac1b\n" {
		t.Errorf("fill = %q", got)
	}
	if !tp.matches([]byte("echo c1 ac1b\n"), "c1") {
		t.Error("matches rejects its own fill")
	}
	for _, bad := range []string{"echo c2 ac1b\n", "echo c1 ac1b", "echo c1 ac1b\nx", ""} {
		if tp.matches([]byte(bad), "c1") {
			t.Errorf("matches accepts %q", bad)
		}
	}
}

// The oracles agree with the program on every generated script: one
// seed's corpus is run through a fresh shell (untimed).
func TestOraclesAgreeWithProgram(t *testing.T) {
	e := &env{seed: 5, work: t.TempDir()}
	s, cases, err := hotSetup(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		_, err := s.run(c.src)
		if !s.check(&c, err) {
			t.Errorf("%s: %s\ngot %q (stderr %q, err %v)\nwant %q", c.family, c.src, s.out.String(), s.errb.String(), err, c.stdout)
		}
	}
	cold, err := coldSetup(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range coldModules(e.seed, 16) {
		id := cold.nextID()
		if _, err := cold.run(m.src.fill(id)); err != nil || !m.stdout.matches(cold.out.Bytes(), id) {
			t.Errorf("cold module: got %q (err %v)\nwant %q", cold.out.String(), err, m.stdout.fill(id))
		}
	}
	ser, err := newShell(e.work)
	if err != nil {
		t.Fatal(err)
	}
	setup, _, _ := esdSetup(e.seed)
	if _, err := ser.run(setup); err != nil {
		t.Fatal(err)
	}
	for _, op := range append(serialRound(e.seed), tinyEvals(e.seed)...) {
		if op.kind == opSnap || op.kind == opRestore || strings.HasPrefix(op.src, "bv1 =") {
			continue
		}
		res, err := ser.run(op.src)
		okErr := (op.kind == opEvalError) == (err != nil)
		okVal := op.value == nil || reflect.DeepEqual(res.Strings(), op.value)
		if !okErr || !okVal || ser.out.String() != op.stdout {
			t.Errorf("%s: got %q %v (err %v), want %q %v", op.src, ser.out.String(), res.Strings(), err, op.stdout, op.value)
		}
	}
}
