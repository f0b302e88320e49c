package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestEveryNameHasAReader: every metric name in names.go and every event
// type in events.go is read somewhere an operator or a gate looks — the
// README, DESIGN, the benchmark driver (bench/*.go) or the health checker.
// A name nothing reads is cost without a consumer: delete it, or document
// what it answers.
func TestEveryNameHasAReader(t *testing.T) {
	readers := []string{"../../README.md", "../../DESIGN.md", "../core/health.go"}
	bench, err := filepath.Glob("../../bench/*.go")
	if err != nil || len(bench) == 0 {
		t.Fatalf("no bench/*.go files found (err %v)", err)
	}
	var text strings.Builder
	for _, p := range append(readers, bench...) {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		text.Write(b)
		text.WriteByte('\n')
	}
	corpus := text.String()

	var orphans []string
	for _, c := range exportedConsts(t, "names.go", "sqlledger_") {
		if !isRead(corpus, c) {
			orphans = append(orphans, c.value)
		}
	}
	for _, c := range exportedConsts(t, "events.go", "") {
		if strings.HasPrefix(c.ident, "Event") && !isRead(corpus, c) {
			orphans = append(orphans, c.value)
		}
	}
	if len(orphans) > 0 {
		t.Fatalf("%d names have no reader in README.md, DESIGN.md, bench/*.go or internal/core/health.go:\n  %s",
			len(orphans), strings.Join(orphans, "\n  "))
	}
}

type namedConst struct{ ident, value string }

// exportedConsts returns the string constants declared in file whose
// values start with prefix.
func exportedConsts(t *testing.T, file, prefix string) []namedConst {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []namedConst
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, id := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				v, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				if id.IsExported() && strings.HasPrefix(v, prefix) {
					out = append(out, namedConst{id.Name, v})
				}
			}
		}
	}
	if len(out) == 0 {
		t.Fatalf("no constants found in %s", file)
	}
	return out
}

// isRead reports whether corpus names c: its value as a whole word, or
// its Go identifier qualified by the package name.
func isRead(corpus string, c namedConst) bool {
	re := regexp.MustCompile(`\b` + regexp.QuoteMeta(c.value) + `\b|\bobs\.` + c.ident + `\b`)
	return re.MatchString(corpus)
}
