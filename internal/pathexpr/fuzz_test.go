package pathexpr_test

import (
	"testing"

	"repro/internal/pathexpr"
	"repro/internal/solutions/pathexprsol"
)

// Path expressions arrive as source text (cmd/pathc, generated
// problems), so the parser and compiler must survive any input: they
// return an error rather than panicking. Seeded from the solution
// library's declarations.
func FuzzParseList(f *testing.F) {
	seeds := []string{
		pathexprsol.Figure1Paths,
		pathexprsol.Figure2Paths,
		"path pass end",
		"path {startread ; endread} , (startwrite ; endwrite) end",
		"path use end",
		"path put ; get end",
		"path deposit , remove end",
		"path lock ; unlock end",
	}
	seeds = append(seeds, pathexprsol.NewBoundedBufferNumeric(3).Paths()...)
	for _, src := range seeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		paths, err := pathexpr.ParseList(src)
		if err != nil {
			return
		}
		if set, err := pathexpr.CompileList(paths); err == nil && set == nil {
			t.Fatalf("CompileList(%q) returned neither a set nor an error", src)
		}
	})
}
