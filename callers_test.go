package sqlledger_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// callerAllowlist names the declarations that no non-test file of the
// module, bench/ or examples/ references and that stay anyway, one per line:
// the name as TestEveryFuncHasACaller prints it (a path.Match pattern, so *
// matches within a name), then one of the reasons in allowReasons, which
// must hold for every declaration the line covers. To add one, paste the
// name from the test's failure and give the reason that holds; a name that
// fits no reason is code to delete.
const callerAllowlist = `
sqlledger.*                             public API
internal/core.DB.AlterColumnType        public API
internal/core.DB.Name                   public API
internal/core.DB.TableOperations        public API
internal/core.DB.ViewDefinition         public API
internal/core.DigestUploader.Errs       public API
internal/core.ReadReceipt.JSON          public API
internal/core.ReadTx.ReadSetSize        public API
internal/core.ReadTx.Scan               public API
internal/core.ReadTx.SnapshotTS         public API
internal/core.SignedDigest.JSON         public API
internal/obs.EventLog.Enabled           public API
internal/obs.EventLog.Recorded          public API
internal/obs.EventLog.SetLogger         public API
internal/obs.Trace.ID                   public API
internal/obs.Trace.Start                public API
internal/obs.TraceStore.Enabled         public API
internal/obs.TraceStore.SetEnabled      public API
internal/sqltypes.Row.Equal             public API
internal/sqltypes.Schema.KeyOf          public API
internal/sqltypes.Value.Float           public API
internal/sqltypes.Value.Time            public API
internal/blobstore.*.Get                interface method
internal/blobstore.*.List               interface method
internal/blobstore.*.Put                interface method
internal/core.ledgerHook.*              interface method
internal/sql.*.stmt                     interface method
internal/core.Timing.String             interface method
internal/serial.OpType.String           interface method
internal/sqltypes.Row.String            interface method
internal/sqltypes.Schema.String         interface method
internal/wal.ErrFormat.Error            interface method
internal/wal.RecordType.String          interface method
internal/engine.DB.Tamper*              tamper API
internal/simchain.*                     test-only package pending ROADMAP 8(a)
internal/workload.*                     test-only package pending ROADMAP 8(a)
`

// allowReasons is the closed set of reasons an allowlist entry may give;
// each checks that the reason holds for every declaration the entry covers.
var allowReasons = map[string]func(c *callerCheck, o types.Object) bool{
	// Exported, and declared in sqlledger.go or a method of a type that file
	// aliases.
	"public API": func(c *callerCheck, o types.Object) bool {
		if !o.Exported() {
			return false
		}
		if o.Pkg().Path() == "sqlledger" && filepath.Base(c.fset.Position(o.Pos()).Filename) == "sqlledger.go" {
			return true
		}
		return c.facadeTypes[recvType(o)]
	},
	// A method that satisfies an interface declared in the module, or
	// error or fmt.Stringer.
	"interface method": func(c *callerCheck, o types.Object) bool {
		recv := recvType(o)
		if recv == nil {
			return false
		}
		for _, iface := range c.ifaces {
			if iface.NumMethods() == 0 {
				continue
			}
			if m, _, _ := types.LookupFieldOrMethod(iface, false, o.Pkg(), o.Name()); m == nil {
				continue
			}
			if types.Implements(recv.Type(), iface) || types.Implements(types.NewPointer(recv.Type()), iface) {
				return true
			}
		}
		return false
	},
	// The storage-level attacker the tamper matrix plays.
	"tamper API": func(c *callerCheck, o types.Object) bool {
		r := recvType(o)
		return r != nil && r.Pkg().Path() == "sqlledger/internal/engine" && r.Name() == "DB" && strings.HasPrefix(o.Name(), "Tamper")
	},
	// Read only by the root benchmarks until ROADMAP 8(a) moves them to bench/.
	"test-only package pending ROADMAP 8(a)": func(c *callerCheck, o types.Object) bool {
		p := o.Pkg().Path()
		return p == "sqlledger/internal/simchain" || p == "sqlledger/internal/workload"
	},
}

// TestEveryFuncHasACaller: every function, method, package-level const and
// package-level var of the module is referenced by a non-test file — the
// module's own, bench/'s or examples/' — or covered by callerAllowlist. Code
// only tests call is code an auditor reads for nothing: delete it and move
// its tests onto the path production runs.
func TestEveryFuncHasACaller(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("type-checks the whole module; checks no concurrency")
	}
	c := newCallerCheck()
	if err := c.load("."); err != nil {
		t.Fatal(err)
	}
	var unreferenced []string
	for key := range c.decls {
		if !c.used[key] {
			unreferenced = append(unreferenced, key)
		}
	}
	sort.Strings(unreferenced)

	type entry struct{ name, reason string }
	var entries []entry
	for _, line := range strings.Split(strings.TrimSpace(callerAllowlist), "\n") {
		if line = strings.TrimSpace(line); line == "" {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		entries = append(entries, entry{name, strings.TrimSpace(reason)})
	}
	covers := func(e entry, key string) bool {
		ok, _ := path.Match(e.name, key)
		return ok
	}
	for _, e := range entries {
		holds, ok := allowReasons[e.reason]
		if !ok {
			t.Errorf("allowlist %s: reason %q is not one of the allowed reasons", e.name, e.reason)
			continue
		}
		n := 0
		for _, key := range unreferenced {
			if !covers(e, key) {
				continue
			}
			n++
			if !holds(c, c.decls[key]) {
				t.Errorf("allowlist %s: %s does not fit the reason %q", e.name, key, e.reason)
			}
		}
		if n == 0 {
			t.Errorf("allowlist %s: names nothing unreferenced (it gained a caller or is gone); delete the entry", e.name)
		}
	}
	for _, key := range unreferenced {
		allowed := false
		for _, e := range entries {
			allowed = allowed || covers(e, key)
		}
		if !allowed {
			t.Errorf("%s (%s) has no caller outside tests: delete it, or add an allowlist entry with its reason",
				key, c.fset.Position(c.decls[key].Pos()))
		}
	}
}

// callerCheck type-checks the module's non-test packages from source and
// records which of its declarations a non-test file references.
type callerCheck struct {
	fset        *token.FileSet
	root        string
	std         types.Importer
	pkgs        map[string]*types.Package
	decls       map[string]types.Object // module declarations by key
	used        map[string]bool         // keys referenced outside their own body
	ifaces      []*types.Interface      // interfaces of the module, plus error and fmt.Stringer
	facadeTypes map[*types.TypeName]bool
}

func newCallerCheck() *callerCheck {
	fset := token.NewFileSet()
	return &callerCheck{
		fset:        fset,
		std:         importer.ForCompiler(fset, "source", nil),
		pkgs:        map[string]*types.Package{},
		decls:       map[string]types.Object{},
		used:        map[string]bool{},
		ifaces:      []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)},
		facadeTypes: map[*types.TypeName]bool{},
	}
}

// Import type-checks a package of the module from its directory under root
// and hands every other path to the standard library's source importer.
func (c *callerCheck) Import(path string) (*types.Package, error) {
	if path != "sqlledger" && !strings.HasPrefix(path, "sqlledger/") {
		p, err := c.std.Import(path)
		if err == nil && path == "fmt" {
			c.ifaces = append(c.ifaces, p.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface))
		}
		return p, err
	}
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	return c.check(path)
}

// load checks every package directory under root: bench/ and examples/
// count as callers only.
func (c *callerCheck) load(root string) error {
	c.root = root
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || p == filepath.Join(root, "bench", "out")) {
			return filepath.SkipDir
		}
		if files, _ := c.goFiles(p); len(files) > 0 {
			paths = append(paths, "sqlledger/"+filepath.ToSlash(p))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, path := range paths {
		if _, err := c.Import(strings.TrimSuffix(path, "/.")); err != nil {
			return err
		}
	}
	if facade := c.pkgs["sqlledger"]; facade != nil {
		for _, name := range facade.Scope().Names() {
			if tn, ok := facade.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					c.facadeTypes[n.Obj()] = true
				}
			}
		}
	}
	return nil
}

// goFiles lists dir's non-test Go files that build on this platform.
func (c *callerCheck) goFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if ok {
			files = append(files, filepath.Join(dir, name))
		}
	}
	return files, nil
}

func (c *callerCheck) check(path string) (*types.Package, error) {
	dir := filepath.Join(c.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "sqlledger"), "/")))
	names, err := c.goFiles(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(c.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	c.pkgs[path] = pkg

	// The declarations to account for, with the body each one's own
	// references (recursion) lie in. bench/'s are not the module's.
	bodies := map[types.Object][2]token.Pos{}
	if !strings.HasPrefix(path, "sqlledger/bench") {
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					o := info.Defs[d.Name]
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Name() == "main") {
						continue
					}
					c.decls[objKey(o)] = o
					bodies[o] = [2]token.Pos{d.Pos(), d.End()}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.Name != "_" {
									c.decls[objKey(info.Defs[id])] = info.Defs[id]
								}
							}
						case *ast.TypeSpec:
							if iface, ok := info.Defs[s.Name].Type().Underlying().(*types.Interface); ok {
								c.ifaces = append(c.ifaces, iface)
							}
						}
					}
				}
			}
		}
	}
	for id, o := range info.Uses {
		if o.Pkg() == nil || o.Pkg().Path() != "sqlledger" && !strings.HasPrefix(o.Pkg().Path(), "sqlledger/") {
			continue
		}
		switch o := o.(type) {
		case *types.Func:
			o = o.Origin()
			if b, ok := bodies[o]; ok && b[0] <= id.Pos() && id.Pos() < b[1] {
				continue
			}
			c.used[objKey(o)] = true
		case *types.Var, *types.Const:
			if o.Parent() == o.Pkg().Scope() {
				c.used[objKey(o)] = true
			}
		}
	}
	return pkg, nil
}

// recvType returns the named type a method is declared on, or nil.
func recvType(o types.Object) *types.TypeName {
	sig, ok := o.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// objKey names a declaration as the test prints it: the package path below
// the module, then the receiver type for a method, then the name.
func objKey(o types.Object) string {
	pkg := strings.TrimPrefix(o.Pkg().Path(), "sqlledger/")
	if r := recvType(o); r != nil {
		return pkg + "." + r.Name() + "." + o.Name()
	}
	return pkg + "." + o.Name()
}
