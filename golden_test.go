package es

// The golden evaluation corpus pins the observable behaviour of the
// evaluator: testdata/eval_golden.json holds, for each program, the
// output, result list and error message it produced when two independent
// evaluators (the bytecode engine and a since-retired tree walker) still
// agreed on it.  The file is not regenerated from the engine it checks;
// a change to it is a change to the language and is reviewed as one.

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// goldenCase is one program and its observable behaviour.  Result is nil
// exactly when Err is set.
type goldenCase struct {
	Src    string   `json:"src"`
	Output string   `json:"output"`
	Result []string `json:"result"`
	Err    string   `json:"err,omitempty"`
}

const goldenDeadlineReason = "golden-deadline"

func loadGolden(tb testing.TB) []goldenCase {
	tb.Helper()
	data, err := os.ReadFile("testdata/eval_golden.json")
	if err != nil {
		tb.Fatal(err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(data, &cases); err != nil {
		tb.Fatalf("testdata/eval_golden.json: %v", err)
	}
	return cases
}

// runHermetic evaluates src hermetically: no externals, a private working
// directory, deterministic stand-ins for the primitives that report
// wall-clock or process-global state, and a deadline so `forever {}`
// inputs terminate.  The directory's path is scrubbed to <dir>.
func runHermetic(t *testing.T, src string, deadline time.Duration) goldenCase {
	t.Helper()
	dir := t.TempDir()
	var buf bytes.Buffer
	sh, err := New(Options{Stdout: &buf, Stderr: &buf, Dir: dir})
	if err != nil {
		t.Fatalf("startup: %v", err)
	}
	sh.Interp().NoExternals = true
	for _, name := range []string{"time", "cachestats", "serverstats"} {
		sh.RegisterPrim(name, func(i *Interp, ctx *Ctx, args List) (List, error) {
			return StrList("stubbed"), nil
		})
	}
	done := make(chan struct{})
	timer := time.AfterFunc(deadline, func() { close(done) })
	defer timer.Stop()
	sh.Interp().SetCancel(done, goldenDeadlineReason)
	res, rerr := sh.Run(src)
	scrub := func(s string) string { return strings.ReplaceAll(s, dir, "<dir>") }
	c := goldenCase{Src: src, Output: scrub(buf.String())}
	if rerr != nil {
		c.Err = scrub(rerr.Error())
		return c
	}
	c.Result = []string{}
	for _, s := range res.Strings() {
		c.Result = append(c.Result, scrub(s))
	}
	return c
}

// TestEvalGolden checks the engine against every program of the corpus:
// every opcode, the word-evaluation fast paths, error shapes and the
// exception machinery.
func TestEvalGolden(t *testing.T) {
	for _, want := range loadGolden(t) {
		if got := runHermetic(t, want.Src, 5*time.Second); !reflect.DeepEqual(got, want) {
			t.Errorf("%q:\n got: %+v\nwant: %+v", want.Src, got, want)
		}
	}
}

// FuzzEval: anything the parser accepts evaluates under the deadline
// without a Go panic.  Seeded with the golden corpus.
func FuzzEval(f *testing.F) {
	for _, c := range loadGolden(f) {
		f.Add(c.Src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1024 {
			t.Skip("oversized input")
		}
		runHermetic(t, src, 2*time.Second)
	})
}
