// Package noalloc is the static escape gate behind //plclint:noalloc.
//
// BenchmarkMACNetworkSteadyState pins the medium loop at 0 allocs/op —
// dynamically, for the configurations the benchmark happens to run.
// This gate is the static complement: a function annotated
//
//	//plclint:noalloc
//
// in its doc comment must show no heap escapes in the compiler's own
// escape analysis (go build -gcflags=-m). A change that introduces a
// new escape into the steady-state MAC loop, AfterIdleN, the
// simulator's lazy medium loop, the model's stage evaluation, or the
// metric counters and histograms fails the lint immediately, instead
// of surfacing as a benchmark regression three PRs later.
//
// Two diagnostic classes are excluded, because they cannot contribute
// to steady-state allocation:
//
//   - escapes positioned inside a panic(...) argument of the annotated
//     function — panic paths terminate the run;
//   - bare string constants escaping ("..." escapes to heap), which
//     the compiler attributes to the call site when a callee's panic
//     is inlined.
//
// Everything else — moved-to-heap variables, composite literals,
// make/new, boxing for interface conversions — is a violation.
package noalloc

import (
	"bytes"
	"fmt"
	"go/ast"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// Name is the annotation and diagnostic tag for the escape gate.
const Name = "noalloc"

// A Func is one //plclint:noalloc-annotated function.
type Func struct {
	ImportPath string
	Name       string // display name, e.g. (*Network).step
	File       string // absolute path
	StartLine  int
	EndLine    int
	panicSpans [][2]int // line ranges of panic(...) calls inside the body
}

// A Violation is one heap escape inside an annotated function.
type Violation struct {
	Func Func
	Pos  string // file:line:col from the compiler
	Diag string // the compiler's message
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s inside //plclint:noalloc %s (%s)", v.Pos, v.Diag, v.Func.Name, Name)
}

// FindAnnotated scans a loaded package for //plclint:noalloc doc
// comments and returns the annotated functions.
func FindAnnotated(pkg *analysis.Package) []Func {
	var out []Func
	for _, f := range pkg.Syntax {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			annotated := false
			for _, c := range fd.Doc.List {
				if strings.HasPrefix(c.Text, "//plclint:noalloc") {
					annotated = true
					break
				}
			}
			if !annotated {
				continue
			}
			start := pkg.Fset.Position(fd.Pos())
			end := pkg.Fset.Position(fd.End())
			fn := Func{
				ImportPath: pkg.ImportPath,
				Name:       displayName(fd),
				File:       start.Filename,
				StartLine:  start.Line,
				EndLine:    end.Line,
			}
			if fd.Body != nil {
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
						fn.panicSpans = append(fn.panicSpans, [2]int{
							pkg.Fset.Position(call.Pos()).Line,
							pkg.Fset.Position(call.End()).Line,
						})
					}
					return true
				})
			}
			out = append(out, fn)
		}
	}
	return out
}

func displayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return "(" + recvString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}

func recvString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return "*" + recvString(e.X)
	case *ast.IndexExpr: // generic receiver
		return recvString(e.X)
	}
	return "?"
}

// escapeRe matches one compiler escape diagnostic.
var escapeRe = regexp.MustCompile(`^(.+?):(\d+):(\d+): (.*(?:escapes to heap|moved to heap).*)$`)

// stringConstRe matches an escaping bare string constant — an inlined
// callee's panic message attributed to the call site. Long constants
// are truncated by the compiler ("... escapes to heap), so only the
// opening quote is structural.
var stringConstRe = regexp.MustCompile(`^".*escapes to heap$`)

// Check runs the compiler's escape analysis over every package that
// contains annotated functions and returns the violations. modDir is
// the module root the go command runs in.
func Check(modDir string, pkgs []*analysis.Package) ([]Violation, []Func, error) {
	var all []Func
	byPkg := map[string][]Func{}
	for _, pkg := range pkgs {
		fns := FindAnnotated(pkg)
		if len(fns) == 0 {
			continue
		}
		all = append(all, fns...)
		byPkg[pkg.ImportPath] = append(byPkg[pkg.ImportPath], fns...)
	}
	paths := make([]string, 0, len(byPkg))
	for path := range byPkg {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	var violations []Violation
	for _, path := range paths {
		fns := byPkg[path]
		diags, err := escapeDiagnostics(modDir, path)
		if err != nil {
			return nil, nil, err
		}
		for _, d := range diags {
			for i := range fns {
				if match(&fns[i], modDir, d) {
					violations = append(violations, Violation{Func: fns[i], Pos: d.pos, Diag: d.msg})
				}
			}
		}
	}
	return violations, all, nil
}

type escapeDiag struct {
	file string // as printed by the compiler
	line int
	pos  string
	msg  string
}

// escapeDiagnostics compiles one package with -gcflags=-m and parses
// the escape lines.
func escapeDiagnostics(modDir, importPath string) ([]escapeDiag, error) {
	cmd := exec.Command("go", "build", "-gcflags="+importPath+"=-m", importPath)
	cmd.Dir = modDir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m %s: %v\n%s", importPath, err, out.String())
	}
	var diags []escapeDiag
	for _, line := range strings.Split(out.String(), "\n") {
		m := escapeRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		diags = append(diags, escapeDiag{
			file: m[1],
			line: n,
			pos:  m[1] + ":" + m[2] + ":" + m[3],
			msg:  m[4],
		})
	}
	return diags, nil
}

// match reports whether the diagnostic is a real escape inside fn.
func match(fn *Func, modDir string, d escapeDiag) bool {
	file := d.file
	if !filepath.IsAbs(file) {
		file = filepath.Join(modDir, file)
	}
	if file != fn.File || d.line < fn.StartLine || d.line > fn.EndLine {
		return false
	}
	if stringConstRe.MatchString(d.msg) {
		return false
	}
	for _, span := range fn.panicSpans {
		if d.line >= span[0] && d.line <= span[1] {
			return false
		}
	}
	return true
}
