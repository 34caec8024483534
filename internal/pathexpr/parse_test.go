package pathexpr

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimpleOp(t *testing.T) {
	p, err := Parse("path read end")
	if err != nil {
		t.Fatal(err)
	}
	op, ok := p.Expr.(*OpRef)
	if !ok || op.Name != "read" {
		t.Fatalf("Expr = %#v", p.Expr)
	}
	if p.String() != "path read end" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestParseSequence(t *testing.T) {
	p, err := Parse("path a ; b ; c end")
	if err != nil {
		t.Fatal(err)
	}
	seq, ok := p.Expr.(*Seq)
	if !ok || len(seq.Elems) != 3 {
		t.Fatalf("Expr = %#v", p.Expr)
	}
}

func TestParseSelection(t *testing.T) {
	p, err := Parse("path a , b end")
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := p.Expr.(*Sel)
	if !ok || len(sel.Alts) != 2 {
		t.Fatalf("Expr = %#v", p.Expr)
	}
}

// Sequence binds loosest: "a , b ; c" is "(a , b) ; c".
func TestPrecedenceSelectionTighter(t *testing.T) {
	p, err := Parse("path a , b ; c end")
	if err != nil {
		t.Fatal(err)
	}
	seq, ok := p.Expr.(*Seq)
	if !ok || len(seq.Elems) != 2 {
		t.Fatalf("top = %#v, want Seq of 2", p.Expr)
	}
	if _, ok := seq.Elems[0].(*Sel); !ok {
		t.Fatalf("first element = %#v, want Sel", seq.Elems[0])
	}
}

func TestParseParensOverridePrecedence(t *testing.T) {
	p, err := Parse("path a , (b ; c) end")
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := p.Expr.(*Sel)
	if !ok || len(sel.Alts) != 2 {
		t.Fatalf("top = %#v, want Sel of 2", p.Expr)
	}
	if _, ok := sel.Alts[1].(*Seq); !ok {
		t.Fatalf("second alternative = %#v, want Seq", sel.Alts[1])
	}
}

func TestParseBurst(t *testing.T) {
	p, err := Parse("path { read } , write end")
	if err != nil {
		t.Fatal(err)
	}
	sel := p.Expr.(*Sel)
	burst, ok := sel.Alts[0].(*Burst)
	if !ok {
		t.Fatalf("first alternative = %#v, want Burst", sel.Alts[0])
	}
	if op := burst.Inner.(*OpRef); op.Name != "read" {
		t.Fatalf("burst inner = %#v", burst.Inner)
	}
}

// Figure 1 of the paper, verbatim.
func TestParseFigure1(t *testing.T) {
	src := `
		path writeattempt end
		path { requestread } , requestwrite end
		path { read } , (openwrite ; write) end
	`
	paths, err := ParseList(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("paths = %d, want 3", len(paths))
	}
	if got := paths[2].String(); got != "path {read} , (openwrite ; write) end" {
		t.Fatalf("canonical form = %q", got)
	}
	ops := paths[2].Ops()
	if strings.Join(ops, " ") != "read openwrite write" {
		t.Fatalf("ops = %v", ops)
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"path read end",
		"path a ; b end",
		"path a , b , c end",
		"path {read} , write end",
		"path {requestread} , requestwrite end",
		"path {read} , (openwrite ; write) end",
		"path (a , b) ; {c ; d} end",
		"path {a , b} end",
	}
	for _, src := range cases {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		// The canonical rendering must itself parse to the same rendering.
		p2, err := Parse(p.String())
		if err != nil {
			t.Fatalf("reparse of %q failed: %v", p.String(), err)
		}
		if p.String() != p2.String() {
			t.Fatalf("round trip changed: %q -> %q", p.String(), p2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src    string
		substr string
	}{
		{"", "no path"},
		{"path end", "expected operation"},
		{"path a", `expected "end"`},
		{"path a ; end", "expected operation"},
		{"path a , , b end", "expected operation"},
		{"path { a end", `expected "}"`},
		{"path ( a end", `expected ")"`},
		{"read end", `expected "path"`},
		{"path a end trailing", `expected "path"`},
		{"path a % b end", "illegal character"},
		{"path path end", "expected operation"},
		// An error inside a burst or after a bound once left the parser
		// re-entering the same "{" until the stack overflowed.
		{"path 2 {a} end", `expected ":"`},
		{"path t end path {d} , e end path { \x10", "illegal character"},
	}
	for _, tc := range cases {
		_, err := ParseList(tc.src)
		if err == nil {
			t.Errorf("ParseList(%q) succeeded, want error containing %q", tc.src, tc.substr)
			continue
		}
		if !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("ParseList(%q) error = %q, want substring %q", tc.src, err, tc.substr)
		}
	}
}

func TestParseRejectsMultiplePathsInParse(t *testing.T) {
	if _, err := Parse("path a end path b end"); err == nil {
		t.Fatal("Parse accepted two paths")
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := ParseList("path a %")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type = %T", err)
	}
	if se.Pos != 7 {
		t.Fatalf("Pos = %d, want 7", se.Pos)
	}
}

func TestPathSourcePreserved(t *testing.T) {
	paths, err := ParseList("  path a ; b end   path c end")
	if err != nil {
		t.Fatal(err)
	}
	if paths[0].Source != "path a ; b end" {
		t.Fatalf("Source = %q", paths[0].Source)
	}
	if paths[1].Source != "path c end" {
		t.Fatalf("Source = %q", paths[1].Source)
	}
}

func TestMustParseListPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustParseList("path")
}

func BenchmarkParseFigure1(b *testing.B) {
	src := `
		path writeattempt end
		path { requestread } , requestwrite end
		path { read } , (openwrite ; write) end
	`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseList(src); err != nil {
			b.Fatal(err)
		}
	}
}

// Crash-freedom fuzz: ParseList must return a value or an error on any
// input, never panic, and any successfully parsed input must re-render
// and re-parse cleanly.
func TestParseArbitraryInputNoPanic(t *testing.T) {
	f := func(src string) bool {
		paths, err := ParseList(src)
		if err != nil {
			return true
		}
		for _, p := range paths {
			rp, err := Parse(p.String())
			if err != nil || rp.String() != p.String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// A few adversarial shapes by hand.
	for _, src := range []string{
		"path", "end", "path path path", "path ; end", "path (((a))) end",
		"path {{{a}}} end", "path 1:1:1 end", "path ::: end", "path a;;b end",
		"path \x00 end", "path 🙂 end",
	} {
		ParseList(src) // must not panic
	}
}
