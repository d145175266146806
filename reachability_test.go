//go:build reachability

package repro_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// keepUnreached lists the internal/ declarations that no program
// reaches but that stay, each with its reason. A key is a symbol as the
// linker spells it without the module prefix ("internal/sim.Sim1901",
// "internal/sim.(*Engine).Station"); a key ending in "." keeps a whole
// package. Every String method is kept too (see keptByRule).
var keepUnreached = map[string]string{
	"internal/sim.Sim1901":                             "the paper's published entry point",
	"internal/sim.(*Engine).Station":                   "the equivalence tests inspect final counters through it",
	"internal/backoff.(*Station).CW":                   "the equivalence tests inspect final counters through it",
	"internal/backoff.(*Station).Params":               "the equivalence tests inspect final counters through it",
	"internal/model.binomialTail":                      "the planned O(d) form of Stage builds on it",
	"internal/model.negBinomialAt":                     "the planned O(d) form of Stage builds on it",
	"internal/campaign.(*CompareReport).MaxDivergence": "the seeded envelope-bound test reads it",
	"internal/campaign.MetricDivergence.Sane":          "the seeded envelope-bound test reads it",
	"internal/model.(*LoadedSolution).ClassFor":        "the loaded-model tests read per-class solutions through it",
	"internal/scenario.Spec.Marshal":                   "the spec round-trip tests and fuzzers re-encode through it",
	"internal/campaign.Spec.Marshal":                   "the campaign round-trip tests and fuzzers re-encode through it",
	"internal/obs.(*Histogram).BucketCounts":           "the obs tests check Observe's bucket placement through it",
	"internal/mac.(*Network).Observe":                  "the mac tests watch the medium-event stream through it",
	"internal/mac.ObserverFunc.OnEvent":                "the mac tests watch the medium-event stream through it",
	"internal/mac.(*Network).Station":                  "the testbed addressing test checks TEI wiring through it",
	"internal/mac.(*Network).StationByAddr":            "the testbed addressing test checks MAC wiring through it",
	"internal/mac.(*Network).Stations":                 "the testbed bit pins walk every station's counters through it",
	"internal/mac.(*Counters).Keys":                    "the testbed bit pins list links through it; maporder's real-tree test mutates its sort",
	"internal/serve.(*Server).Submit":                  "the serve tests submit jobs in-process through it",
	"internal/serve.(*Server).SubmitCampaign":          "the serve tests submit campaigns in-process through it",
	"internal/serve.(*Job).Wait":                       "the serve tests block on job completion through it",
	"internal/stats/statcheck.":                        "a test-helper package: the seeded statistical gates share it",
	"internal/analysis/analysistest.":                  "a test-helper package: every analyzer's fixture test runs through it",
}

// keptByRule reports declarations kept by name rather than by entry:
// init runs without a caller, and String methods are how tests and
// failure messages print values.
func keptByRule(name string) bool {
	return name == "init" || name == "String"
}

// TestReachability fails on any func or method under internal/ that no
// program reaches and that keepUnreached does not name. "Reached" is
// the linker's verdict: every cmd/*, every examples/* and perfbench is
// linked with inlining off and -dumpdep, and a declaration counts as
// reached when its symbol appears in a dependency edge. Run it with
//
//	go test -tags reachability -run TestReachability .
func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("links every program")
	}
	const module = "repro/"
	reached := map[string]bool{}
	link := func(dir string, pkgs ...string) {
		args := append([]string{"build", "-o", t.TempDir(), "-gcflags=all=-l", "-ldflags=-dumpdep"}, pkgs...)
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("go %s (in %s): %v\n%s", strings.Join(args, " "), dir, err, tail(stderr.String()))
		}
		sc := bufio.NewScanner(&stderr)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			from, to, ok := strings.Cut(sc.Text(), " -> ")
			if !ok {
				continue
			}
			for _, sym := range []string{from, to} {
				if s, ok := strings.CutPrefix(normalizeSym(sym), module); ok {
					reached[s] = true
				}
			}
		}
	}
	link(".", "./cmd/...", "./examples/...")
	link("perfbench", ".")
	if len(reached) == 0 {
		t.Fatal("-dumpdep printed no repro/ symbol; the linker's output format changed")
	}

	decls := internalDecls(t)
	var dead []string
	used := map[string]bool{}
	for _, d := range decls {
		if keptByRule(d.name) || reached[d.sym] {
			continue
		}
		if key := keepKey(d.sym); key != "" {
			used[key] = true
			continue
		}
		dead = append(dead, d.sym+" ("+d.pos+")")
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Errorf("unreached and not kept: %s", s)
	}
	var stale []string
	for key := range keepUnreached {
		if !used[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("keep-list entry %q is reached or no longer declared; drop it", key)
	}
}

// keepKey returns the keepUnreached entry that covers sym, or "".
func keepKey(sym string) string {
	if _, ok := keepUnreached[sym]; ok {
		return sym
	}
	pkg, _, _ := strings.Cut(sym, ".")
	if _, ok := keepUnreached[pkg+"."]; ok {
		return pkg + "."
	}
	return ""
}

type decl struct{ sym, name, pos string }

// internalDecls parses every non-test .go file under internal/ and
// returns its funcs and methods as linker symbols without the module
// prefix: "internal/pkg.F", "internal/pkg.T.M", "internal/pkg.(*T).M".
func internalDecls(t *testing.T) []decl {
	t.Helper()
	var out []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		for _, dl := range f.Decls {
			fn, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			sym := pkg + "." + fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				sym = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			out = append(out, decl{sym: sym, name: fn.Name.Name, pos: fset.Position(fn.Pos()).String()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// recvName spells a receiver type the way the linker does: "T" or
// "(*T)", type parameters dropped.
func recvName(e ast.Expr) string {
	star := false
	if s, ok := e.(*ast.StarExpr); ok {
		star, e = true, s.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	name := e.(*ast.Ident).Name
	if star {
		return "(*" + name + ")"
	}
	return name
}

// closureSuffix matches the name components the compiler gives code
// nested in a declaration: closures ("func1", "1"), deferred and go'd
// call wrappers ("deferwrap1", "gowrap2").
var closureSuffix = regexp.MustCompile(`^(func|deferwrap|gowrap)?[0-9]+$`)

// normalizeSym strips what the linker adds to a Go symbol: type
// arguments ("Map[go.shape.int]"), method-value wrappers ("-fm") and
// closure suffixes ("F.func1.2"), so that the result names the
// declaration the code came from.
func normalizeSym(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s = strings.TrimSuffix(b.String(), "-fm")
	for {
		i := strings.LastIndex(s, ".")
		if i < 0 || !closureSuffix.MatchString(s[i+1:]) {
			return s
		}
		s = s[:i]
	}
}

func tail(s string) string {
	if len(s) > 4000 {
		return "…" + s[len(s)-4000:]
	}
	return s
}
