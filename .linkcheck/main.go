// Command linkcheck fails when a non-test function of this repository is
// linked into none of its binaries.
//
// It builds every main package of the root module and of the perfbench
// module with inlining off (-gcflags=all=-l), so every function a binary
// calls keeps its own symbol, and reads the symbols back with go tool nm.
// A function declared in a non-test file that appears in no binary is
// unlinked: only tests reach it, or nothing does. Each one must be named in
// the allowlist (allow.txt next to this file), one entry per line with a
// reason after '#'. An entry is a function (import path, receiver type and
// name, as in repro/internal/exec.Runner.Reference), a package (ending in
// ".*") or a file (ending in ".go", relative to the repository root). An
// entry that no longer covers an unlinked function is reported too, so the
// list cannot go stale.
//
// The directory name starts with a dot, so ./... never builds or vets this
// command. Run it from the repository root:
//
//	go run ./.linkcheck
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// modules are the Go modules whose main packages and functions are checked,
// relative to the repository root.
var modules = []string{".", "perfbench"}

// pkg is one package as go list reports it.
type pkg struct {
	name, path, dir string
	files           []string
}

// fn is one function or method declaration.
type fn struct {
	key   string // import path, receiver type and name, as normalized symbols read
	pos   string // file:line
	lines int
}

func main() {
	allow, err := readAllow(filepath.Join(".linkcheck", "allow.txt"))
	if err != nil {
		fatal(err)
	}
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	tmp, err := os.MkdirTemp("", "linkcheck")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)

	linked := map[string]bool{}
	var decls []fn
	for _, mod := range modules {
		pkgs, err := list(mod)
		if err != nil {
			fatal(err)
		}
		var mains []string
		for _, p := range pkgs {
			if p.name == "main" {
				mains = append(mains, p.path)
			}
			ds, err := declared(p, root)
			if err != nil {
				fatal(err)
			}
			decls = append(decls, ds...)
		}
		if err := symbols(mod, mains, filepath.Join(tmp, filepath.Base(mod)), linked); err != nil {
			fatal(err)
		}
	}

	used := map[string]bool{}
	var bad []fn
	for _, d := range decls {
		if linked[d.key] {
			continue
		}
		if e := allow.match(d); e != "" {
			used[e] = true
			continue
		}
		bad = append(bad, d)
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i].pos < bad[j].pos })
	failed := false
	for _, d := range bad {
		fmt.Printf("%s: %s (%d lines) is linked into no binary\n", d.pos, d.key, d.lines)
		failed = true
	}
	for _, e := range allow.order {
		if !used[e] {
			fmt.Printf("allow.txt: %s names no unlinked function; remove the entry\n", e)
			failed = true
		}
	}
	fmt.Printf("linkcheck: %d functions, %d unlinked outside the allowlist, %d allowlist entries\n",
		len(decls), len(bad), len(allow.order))
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "linkcheck:", err)
	os.Exit(2)
}

// list returns the packages of the module in dir, with their non-test Go
// files for the current platform.
func list(dir string) ([]pkg, error) {
	out, err := run(dir, "go", "list", "-f", "{{.Name}}\t{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
	if err != nil {
		return nil, err
	}
	var pkgs []pkg
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			return nil, fmt.Errorf("go list: unexpected line %q", line)
		}
		pkgs = append(pkgs, pkg{name: f[0], path: f[1], dir: f[2], files: strings.Fields(f[3])})
	}
	return pkgs, nil
}

// declared returns every function and method the package's files declare,
// apart from init and main.main, with positions relative to root.
func declared(p pkg, root string) ([]fn, error) {
	fset := token.NewFileSet()
	var out []fn
	for _, name := range p.files {
		file := filepath.Join(p.dir, name)
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Name.Name == "init" || d.Name.Name == "_" || (p.name == "main" && d.Name.Name == "main" && d.Recv == nil) {
				continue
			}
			key := p.path + "."
			if d.Recv != nil && len(d.Recv.List) == 1 {
				key += recvName(d.Recv.List[0].Type) + "."
			}
			start, end := fset.Position(d.Pos()), fset.Position(d.End())
			rel, err := filepath.Rel(root, file)
			if err != nil {
				rel = file
			}
			out = append(out, fn{
				key:   key + d.Name.Name,
				pos:   fmt.Sprintf("%s:%d", rel, start.Line),
				lines: end.Line - start.Line + 1,
			})
		}
	}
	return out, nil
}

// recvName returns a receiver's type name without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}

// symbols builds the main packages of the module in dir into out with
// inlining off and adds every text symbol of every binary to linked. A main
// package's own symbols are renamed from main.X to <import path>.X.
func symbols(dir string, mains []string, out string, linked map[string]bool) error {
	if len(mains) == 0 {
		return nil
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	args := append([]string{"build", "-gcflags=all=-l", "-o", out + string(filepath.Separator)}, mains...)
	if _, err := run(dir, "go", args...); err != nil {
		return err
	}
	for _, m := range mains {
		nm, err := run(dir, "go", "tool", "nm", filepath.Join(out, filepath.Base(m)))
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(bytes.NewReader(nm))
		for sc.Scan() {
			// addr type name; a name may contain spaces (a generic
			// instantiation over a struct shape).
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) != 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			s := normalize(f[2])
			if rest, ok := strings.CutPrefix(s, "main."); ok {
				s = m + "." + rest
			}
			linked[s] = true
		}
	}
	return nil
}

// normalize drops type arguments, pointer-receiver parentheses and the ABI
// suffix from a symbol: repro/x.(*T[go.shape.float64]).M becomes repro/x.T.M.
func normalize(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0 && r != '(' && r != ')' && r != '*':
			b.WriteRune(r)
		}
	}
	return strings.TrimSuffix(b.String(), ".abi0")
}

// allowlist is the parsed allow.txt: entry -> reason, in file order.
type allowlist struct {
	reason map[string]string
	order  []string
}

func readAllow(path string) (allowlist, error) {
	a := allowlist{reason: map[string]string{}}
	data, err := os.ReadFile(path)
	if err != nil {
		return a, err
	}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entry, reason, _ := strings.Cut(line, "#")
		entry, reason = strings.TrimSpace(entry), strings.TrimSpace(reason)
		if reason == "" {
			return a, fmt.Errorf("%s:%d: entry %q has no reason", path, i+1, entry)
		}
		if _, dup := a.reason[entry]; dup {
			return a, fmt.Errorf("%s:%d: duplicate entry %q", path, i+1, entry)
		}
		a.reason[entry] = reason
		a.order = append(a.order, entry)
	}
	return a, nil
}

// match returns the entry that covers d, or "".
func (a allowlist) match(d fn) string {
	if _, ok := a.reason[d.key]; ok {
		return d.key
	}
	file, _, _ := strings.Cut(d.pos, ":")
	if _, ok := a.reason[file]; ok {
		return file
	}
	for _, e := range a.order {
		if p, ok := strings.CutSuffix(e, ".*"); ok && strings.HasPrefix(d.key, p+".") && !strings.Contains(d.key[len(p)+1:], "/") {
			return e
		}
	}
	return ""
}

func run(dir, name string, args ...string) ([]byte, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}
