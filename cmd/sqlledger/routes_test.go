package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"sqlledger"
)

// TestOpsRoutesDocumented: the paths the ops server registers (parsed
// from the two files that register them) are the paths in README's
// endpoint table and in usage(), no more and no fewer. A route no doc
// names has no reader; a documented one that is gone misleads.
func TestOpsRoutesDocumented(t *testing.T) {
	db, err := sqlledger.Open(sqlledger.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mux, ok := db.OpsHandler().(*http.ServeMux)
	if !ok {
		t.Fatalf("OpsHandler is a %T, not a *http.ServeMux", db.OpsHandler())
	}
	registered := func(path string) bool {
		_, pattern := mux.Handler(httptest.NewRequest(http.MethodGet, path, nil))
		return pattern == path
	}

	var served []string
	route := regexp.MustCompile(`(?:HandleFunc|serveJSON)\("(/[^"]*)"`)
	for _, src := range []string{"../../internal/obs/http.go", "../../internal/core/health.go"} {
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range route.FindAllStringSubmatch(string(b), -1) {
			if !registered(m[1]) {
				t.Fatalf("%s registers %s, but OpsHandler does not serve it", src, m[1])
			}
			served = append(served, m[1])
		}
	}
	if registered("/debug/slow") {
		t.Fatal("/debug/slow is served")
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	tableRow := regexp.MustCompile("(?m)^\\| `(/[^`]*)` \\|")
	var documented []string
	for _, m := range tableRow.FindAllStringSubmatch(string(readme), -1) {
		documented = append(documented, m[1])
	}
	var listed []string
	for _, m := range regexp.MustCompile(`[\s(](/[a-z][a-z/]*[a-z])`).FindAllStringSubmatch(usageText, -1) {
		listed = append(listed, m[1])
	}

	want := endpoints(served)
	for doc, paths := range map[string][]string{"README's endpoint table": documented, "usage()": listed} {
		if got := endpoints(paths); !slices.Equal(got, want) {
			t.Errorf("%s names %v; OpsHandler serves %v", doc, got, want)
		}
	}
}

// endpoints sorts and de-duplicates paths, counting every /debug/pprof/
// profile as the one /debug/pprof endpoint.
func endpoints(paths []string) []string {
	out := make([]string, 0, len(paths))
	for _, p := range paths {
		if strings.HasPrefix(p, "/debug/pprof") {
			p = "/debug/pprof"
		}
		out = append(out, p)
	}
	slices.Sort(out)
	return slices.Compact(out)
}
