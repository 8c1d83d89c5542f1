package parser

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lexer"
	"repro/internal/sema"
)

// FuzzFrontend feeds arbitrary sources through the lexer, the parser
// and the checker. Parse and sema.Check must not panic; Parse's error
// list must start with the lexer's errors, in order, and hold at most
// maxErrors entries unless the lexer alone reports more. The seeds are
// the testdata programs; the committed corpus adds serve-sized
// generated ones.
//
//	go test -run '^$' -fuzz '^FuzzFrontend$' -fuzztime 20s ./internal/parser/
func FuzzFrontend(f *testing.F) {
	for _, glob := range []string{"../../testdata/*.lol", "../../testdata/savina/*.lol"} {
		files, err := filepath.Glob(glob)
		if err != nil {
			f.Fatal(err)
		}
		for _, name := range files {
			src, err := os.ReadFile(name)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, lexErrs := lexer.ScanAll("f.lol", src)
		prog, err := Parse("f.lol", src)
		if err == nil {
			if len(lexErrs) > 0 {
				t.Fatalf("Parse succeeded; the lexer reported %v", lexErrs[0])
			}
			sema.Check(prog)
			return
		}
		list, ok := err.(ErrorList)
		if !ok {
			t.Fatalf("error %T, want ErrorList", err)
		}
		if len(list) < len(lexErrs) || len(list) > max(maxErrors, len(lexErrs)) {
			t.Fatalf("%d errors for %d lexer errors", len(list), len(lexErrs))
		}
		for i, e := range lexErrs {
			if list[i].Pos != e.Pos || list[i].Msg != e.Msg {
				t.Fatalf("error %d is %v, want the lexer's %v", i, list[i], e)
			}
		}
	})
}
