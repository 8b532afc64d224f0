// Command docscheck enforces the repo's documentation invariants. It is
// wired to `make docs-check` and the `docs` CI job, and fails (non-zero
// exit, one line per problem) when any invariant is violated:
//
//  1. Every package under internal/ and cmd/ must carry a package-level
//     doc comment (a comment block immediately above the package clause
//     in at least one non-test file).
//  2. Every flag that README.md or EXPERIMENTS.md shows being passed to
//     one of this repo's commands must actually be registered by that
//     command. This catches the classic drift where a flag is renamed
//     or removed but a documented invocation keeps advertising it.
//  3. Every `./cmd/NAME` path that README.md or EXPERIMENTS.md shows in
//     a code line must name an existing command directory, so an
//     invocation of a deleted command cannot linger in the docs.
//  4. The result-affecting shared flags (-swizzle, -chiplet — the ones
//     that change what is computed and therefore ride in cache keys)
//     must be demonstrated in the docs for every command that registers
//     them: each such command needs at least one code line in README.md
//     or EXPERIMENTS.md passing it the flag. Invariant 2 catches
//     documented-but-unregistered; this is the reverse direction, so a
//     new CLI gaining -chiplet cannot ship without a documented
//     invocation.
//
// The flag cross-check scans fenced code blocks and indented code lines
// in the two documents. A line is attributed to a command when a token
// names it directly (`evaluate -quick`), via `./cmd/NAME`, or via a
// `go run ./cmd/NAME` invocation; every `-flag` token after that point
// on the line is then required to be registered by the command (flags
// are discovered by parsing the command's source for flag.String /
// flag.Bool / ... / flag.*Var calls). Flags registered through the
// shared internal/cli helpers (cli.RegisterSweepFlags and friends) are
// resolved transitively: docscheck parses internal/cli, computes each
// helper's registered-flag set (including helpers calling helpers), and
// credits those flags to any command that calls the helper — so moving
// a registration into internal/cli cannot silently exempt it from the
// documentation cross-check. Tokens on lines with no known command
// (curl, go test, shell built-ins) are ignored.
//
// Usage:
//
//	go run ./tools/docscheck          # from the repo root
//	go run ./tools/docscheck -root .. # explicit repo root
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	var problems []string

	pkgDirs, err := goPackageDirs(*root, "internal", "cmd")
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(2)
	}
	for _, dir := range pkgDirs {
		ok, err := hasPackageDoc(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(2)
		}
		if !ok {
			rel, _ := filepath.Rel(*root, dir)
			problems = append(problems, fmt.Sprintf("%s: package has no package-level doc comment", rel))
		}
	}

	cmdFlags, err := registeredFlags(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(2)
	}
	demonstrated := make(map[string]map[string]bool) // cmd -> flags the docs show it taking
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		p := filepath.Join(*root, doc)
		data, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(2)
		}
		problems = append(problems, checkDocFlags(doc, string(data), cmdFlags, demonstrated)...)
	}
	problems = append(problems, checkSharedFlagCoverage(cmdFlags, demonstrated)...)

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "docscheck: %s\n", p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d packages documented, %d commands cross-checked against README.md and EXPERIMENTS.md\n",
		len(pkgDirs), len(cmdFlags))
}

// goPackageDirs returns every directory under root/<sub> (for each sub)
// that contains at least one non-test .go file.
func goPackageDirs(root string, subs ...string) ([]string, error) {
	var dirs []string
	for _, sub := range subs {
		err := filepath.Walk(filepath.Join(root, sub), func(path string, info os.FileInfo, err error) error {
			if err != nil || !info.IsDir() {
				return err
			}
			ents, err := os.ReadDir(path)
			if err != nil {
				return err
			}
			for _, e := range ents {
				name := e.Name()
				if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
					dirs = append(dirs, path)
					break
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasPackageDoc reports whether any non-test file in dir attaches a doc
// comment to its package clause.
func hasPackageDoc(dir string) (bool, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		return false, err
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				return true, nil
			}
		}
	}
	return false, nil
}

// registeredFlags parses every cmd/* main package and returns, per
// command name, the set of flag names it registers via the flag package
// (flag.String, flag.Bool, ..., and the *Var / Func forms) or through
// one of the shared internal/cli Register* helpers.
func registeredFlags(root string) (map[string]map[string]bool, error) {
	helperFlags, err := cliHelperFlags(root)
	if err != nil {
		return nil, err
	}
	cmdRoot := filepath.Join(root, "cmd")
	ents, err := os.ReadDir(cmdRoot)
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string]bool)
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		flags, err := flagsInDir(filepath.Join(cmdRoot, e.Name()), helperFlags)
		if err != nil {
			return nil, err
		}
		// The flag package registers -h/-help implicitly.
		flags["h"] = true
		flags["help"] = true
		out[e.Name()] = flags
	}
	return out, nil
}

// flagRegistration maps the flag.* registration functions onto the
// argument index holding the flag name, or -1 for non-registrations.
func flagRegistrationNameArg(fn string) int {
	switch fn {
	case "Bool", "Int", "Int64", "Uint", "Uint64", "String",
		"Float64", "Duration", "Func", "TextVar":
		return 0
	case "BoolVar", "IntVar", "Int64Var", "UintVar", "Uint64Var",
		"StringVar", "Float64Var", "DurationVar", "Var":
		return 1
	}
	return -1
}

// directFlagCalls records into flags every flag registered by flag.*
// calls under n, and into helperCalls (when non-nil) the name of every
// pkgName.Fn(...) helper call under n.
func directFlagCalls(n ast.Node, pkgName string, flags map[string]bool, helperCalls map[string]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if recv.Name == pkgName && helperCalls != nil {
			helperCalls[sel.Sel.Name] = true
		}
		if recv.Name != "flag" {
			return true
		}
		nameArg := flagRegistrationNameArg(sel.Sel.Name)
		if nameArg < 0 || nameArg >= len(call.Args) {
			return true
		}
		if lit, ok := call.Args[nameArg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				flags[name] = true
			}
		}
		return true
	})
}

// cliHelperFlags parses internal/cli and returns, per exported helper
// function, the set of flags it registers — transitively, so a helper
// that calls another local helper is credited with the callee's flags
// too.
func cliHelperFlags(root string) (map[string]map[string]bool, error) {
	dir := filepath.Join(root, "internal", "cli")
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return nil, nil
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	direct := make(map[string]map[string]bool) // fn -> flags registered in its own body
	calls := make(map[string]map[string]bool)  // fn -> local fns it calls
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				name := fd.Name.Name
				if direct[name] == nil {
					direct[name] = make(map[string]bool)
					calls[name] = make(map[string]bool)
				}
				directFlagCalls(fd.Body, "", direct[name], nil)
				// Bare local calls: Fn(...) with Fn a package function.
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if id, ok := call.Fun.(*ast.Ident); ok {
						calls[name][id.Name] = true
					}
					return true
				})
			}
		}
	}
	// Fixpoint: propagate callee flags to callers until stable. The call
	// graph is tiny; a bounded loop is simpler than a topological sort.
	for changed := true; changed; {
		changed = false
		for fn, callees := range calls {
			for callee := range callees {
				for fl := range direct[callee] {
					if !direct[fn][fl] {
						direct[fn][fl] = true
						changed = true
					}
				}
			}
		}
	}
	return direct, nil
}

// flagsInDir collects the flags a command registers: directly via
// flag.*, and indirectly via cli.Helper() calls resolved through
// helperFlags.
func flagsInDir(dir string, helperFlags map[string]map[string]bool) (map[string]bool, error) {
	flags := make(map[string]bool)
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			helperCalls := make(map[string]bool)
			directFlagCalls(f, "cli", flags, helperCalls)
			for fn := range helperCalls {
				for fl := range helperFlags[fn] {
					flags[fl] = true
				}
			}
		}
	}
	return flags, nil
}

var flagToken = regexp.MustCompile(`^-{1,2}([a-zA-Z][a-zA-Z0-9-]*)`)

// cmdPath matches a ./cmd/NAME command path (not the ./cmd/... pattern).
var cmdPath = regexp.MustCompile(`^\./cmd/([a-zA-Z0-9_-]+)/?$`)

// resultAffectingSharedFlags lists the flags invariant 4 holds to
// docs coverage: shared across commands via internal/cli helpers and
// result-affecting (part of the cache key), so an undocumented
// registration is a served-but-invisible knob.
var resultAffectingSharedFlags = []string{"swizzle", "chiplet"}

// checkSharedFlagCoverage is invariant 4: every command registering a
// result-affecting shared flag must be shown taking it somewhere in the
// scanned docs.
func checkSharedFlagCoverage(cmdFlags, demonstrated map[string]map[string]bool) []string {
	var problems []string
	cmds := make([]string, 0, len(cmdFlags))
	for cmd := range cmdFlags {
		cmds = append(cmds, cmd)
	}
	sort.Strings(cmds)
	for _, fl := range resultAffectingSharedFlags {
		for _, cmd := range cmds {
			if cmdFlags[cmd][fl] && !demonstrated[cmd][fl] {
				problems = append(problems,
					fmt.Sprintf("command %q registers the result-affecting flag -%s but neither README.md nor EXPERIMENTS.md shows an invocation using it", cmd, fl))
			}
		}
	}
	return problems
}

// checkDocFlags scans code lines of a markdown document and verifies
// every -flag passed to a known command against that command's
// registered flag set, recording each (command, flag) pair it sees into
// demonstrated. Returns one problem string per unknown flag and per
// ./cmd/NAME path naming no command.
func checkDocFlags(docName, text string, cmdFlags map[string]map[string]bool, demonstrated map[string]map[string]bool) []string {
	var problems []string
	inFence := false
	for i, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			inFence = !inFence
			continue
		}
		// Code lines: fenced blocks, or 4-space/tab indented blocks.
		if !inFence && !strings.HasPrefix(line, "    ") && !strings.HasPrefix(line, "\t") {
			continue
		}
		cmd := ""
		for _, tok := range strings.Fields(trimmed) {
			tok = strings.Trim(tok, "`\"'();|&")
			if m := cmdPath.FindStringSubmatch(tok); m != nil && cmdFlags[m[1]] == nil {
				problems = append(problems,
					fmt.Sprintf("%s:%d: %s names no command (no cmd/%s directory)", docName, i+1, tok, m[1]))
				continue
			}
			if cmd == "" {
				if c := commandName(tok, cmdFlags); c != "" {
					cmd = c
				}
				continue
			}
			m := flagToken.FindStringSubmatch(tok)
			if m == nil {
				continue
			}
			if !cmdFlags[cmd][m[1]] {
				problems = append(problems,
					fmt.Sprintf("%s:%d: command %q has no flag -%s", docName, i+1, cmd, m[1]))
				continue
			}
			if demonstrated[cmd] == nil {
				demonstrated[cmd] = make(map[string]bool)
			}
			demonstrated[cmd][m[1]] = true
		}
	}
	return problems
}

// commandName maps a shell token onto one of the repo's commands:
// the bare name, ./cmd/NAME, or a path ending in /NAME.
func commandName(tok string, cmdFlags map[string]map[string]bool) string {
	tok = strings.TrimSuffix(tok, "/")
	base := tok
	if i := strings.LastIndex(tok, "/"); i >= 0 {
		base = tok[i+1:]
	}
	if _, ok := cmdFlags[base]; !ok {
		return ""
	}
	// Bare name or an explicit path to the command.
	if base == tok || strings.Contains(tok, "cmd/"+base) || strings.HasPrefix(tok, "./") || strings.HasPrefix(tok, "/") {
		return base
	}
	return ""
}
