// Command docbuild keeps the prose documentation honest. It does three
// things, all wired into ci.sh as hard gates:
//
//  1. Every fenced ```go block in the markdown files named on the command
//     line is extracted into a scratch package inside the module and
//     compiled with `go build`, so documentation examples cannot drift
//     away from the real API. Blocks are required to be complete files
//     (they must start with a package clause); intentionally
//     non-compilable snippets belong in plain ``` or ```text fences.
//  2. Every fenced ```spec block is run through the internal/spec parser,
//     so monitor-spec examples in the docs always parse. Deliberately
//     broken examples belong in plain ``` fences.
//  3. With -flagsrc and -flagdoc set, every flag registered by the named
//     command source files (comma-separated, one per binary) must be
//     mentioned (as -name) somewhere in the -flagdoc markdown files, so
//     the operator-facing flag reference cannot silently miss a flag
//     added to any binary; and every flag-table row in those files (a
//     row whose first cell is `-name`) must name a flag one of the
//     binaries registers, so a removed flag cannot linger in the tables.
//
// Usage:
//
//	go run ./internal/tools/docbuild \
//	    -flagsrc cmd/stardust-server/main.go,cmd/stardust-router/main.go \
//	    -flagdoc README.md,RUNBOOK.md \
//	    README.md RUNBOOK.md DESIGN.md
//
// It must run from the module root (ci.sh does). Exit status 1 on any
// failed build or undocumented flag.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"stardust/internal/spec"
)

// scratchDir is created under the module root so extracted blocks compile
// in module context (import "stardust" resolves offline). The name must
// not start with "." or "_" — the go tool refuses such paths even when
// named explicitly.
const scratchDir = "tmp-docbuild"

func main() {
	flagSrc := flag.String("flagsrc", "", "comma-separated Go source files whose flag registrations must be documented")
	flagDoc := flag.String("flagdoc", "", "comma-separated markdown files that together document every flag from -flagsrc")
	flag.Parse()

	failed := false
	for _, md := range flag.Args() {
		if err := buildBlocks(md); err != nil {
			fmt.Fprintf(os.Stderr, "docbuild: %v\n", err)
			failed = true
		}
		if err := parseSpecBlocks(md); err != nil {
			fmt.Fprintf(os.Stderr, "docbuild: %v\n", err)
			failed = true
		}
	}
	if *flagSrc != "" {
		registered := make(map[string]bool)
		for _, src := range strings.Split(*flagSrc, ",") {
			src = strings.TrimSpace(src)
			if src == "" {
				continue
			}
			if err := checkFlagsDocumented(src, strings.Split(*flagDoc, ",")); err != nil {
				fmt.Fprintf(os.Stderr, "docbuild: %v\n", err)
				failed = true
			}
			names, _ := flagNames(src)
			for _, n := range names {
				registered[n] = true
			}
		}
		if err := checkFlagRows(strings.Split(*flagDoc, ","), registered); err != nil {
			fmt.Fprintf(os.Stderr, "docbuild: %v\n", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// extractBlocks returns the contents of every fenced block with the given
// info string (```<lang>) in the markdown source, with the 1-based line
// number of each block's opening fence for error attribution.
func extractBlocks(src, lang string) (blocks []string, lines []int) {
	var cur []string
	open := "```" + lang
	in := false
	start := 0
	for i, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case !in && trimmed == open:
			in, cur, start = true, nil, i+1
		case in && trimmed == "```":
			in = false
			blocks = append(blocks, strings.Join(cur, "\n")+"\n")
			lines = append(lines, start)
		case in:
			cur = append(cur, line)
		}
	}
	return blocks, lines
}

// parseSpecBlocks runs every ```spec block in one markdown file through
// the monitor-spec parser.
func parseSpecBlocks(mdPath string) error {
	src, err := os.ReadFile(mdPath)
	if err != nil {
		return err
	}
	blocks, lines := extractBlocks(string(src), "spec")
	var errs []string
	for i, block := range blocks {
		if _, err := spec.Parse(block); err != nil {
			errs = append(errs, fmt.Sprintf("%s:%d: ```spec block does not parse: %v", mdPath, lines[i], err))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s", strings.Join(errs, "\n"))
	}
	return nil
}

// buildBlocks extracts and compiles every ```go block in one markdown file.
func buildBlocks(mdPath string) error {
	src, err := os.ReadFile(mdPath)
	if err != nil {
		return err
	}
	blocks, lines := extractBlocks(string(src), "go")
	if len(blocks) == 0 {
		return nil
	}
	if err := os.RemoveAll(scratchDir); err != nil {
		return err
	}
	defer os.RemoveAll(scratchDir)
	var errs []string
	for i, block := range blocks {
		where := fmt.Sprintf("%s:%d", mdPath, lines[i])
		if !strings.HasPrefix(strings.TrimSpace(block), "package ") {
			errs = append(errs, fmt.Sprintf("%s: ```go block is not a complete file (no package clause); use a plain ``` fence for fragments", where))
			continue
		}
		dir := filepath.Join(scratchDir, "b"+strconv.Itoa(i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "block.go"), []byte(block), 0o644); err != nil {
			return err
		}
		cmd := exec.Command("go", "build", "-o", os.DevNull, "./"+dir)
		out, err := cmd.CombinedOutput()
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: block does not compile:\n%s", where, strings.TrimSpace(string(out))))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s", strings.Join(errs, "\n"))
	}
	return nil
}

// checkFlagsDocumented parses srcPath for flag.String/Int/... registrations
// and requires each registered name to appear as -name in the combined
// content of the markdown files.
func checkFlagsDocumented(srcPath string, docPaths []string) error {
	names, err := flagNames(srcPath)
	if err != nil {
		return err
	}
	if len(names) == 0 {
		return fmt.Errorf("%s: no flag registrations found (wrong -flagsrc?)", srcPath)
	}
	var docs strings.Builder
	for _, p := range docPaths {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		docs.Write(b)
		docs.WriteByte('\n')
	}
	content := docs.String()
	var missing []string
	for _, name := range names {
		// -name bounded so -w does not match read-write or -wal-dir.
		re := regexp.MustCompile(`(^|[^0-9A-Za-z-])-` + regexp.QuoteMeta(name) + `([^0-9A-Za-z-]|$)`)
		if !re.MatchString(content) {
			missing = append(missing, "-"+name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s registers flags not documented in %s: %s",
			srcPath, strings.Join(docPaths, ", "), strings.Join(missing, " "))
	}
	return nil
}

// flagRow matches a flag-table row: its first cell is a backquoted -name.
var flagRow = regexp.MustCompile("^\\| `-([0-9A-Za-z-]+)` \\|")

// checkFlagRows requires every flag-table row of the markdown files to
// name a registered flag.
func checkFlagRows(docPaths []string, registered map[string]bool) error {
	var stale []string
	for _, p := range docPaths {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(b), "\n") {
			if m := flagRow.FindStringSubmatch(line); m != nil && !registered[m[1]] {
				stale = append(stale, fmt.Sprintf("%s:%d: -%s", p, i+1, m[1]))
			}
		}
	}
	if len(stale) > 0 {
		return fmt.Errorf("flag tables document flags no binary registers:\n%s", strings.Join(stale, "\n"))
	}
	return nil
}

// flagNames returns the names registered through the flag package in one
// source file, in declaration order.
func flagNames(srcPath string) ([]string, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, srcPath, nil, 0)
	if err != nil {
		return nil, err
	}
	var names []string
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != "flag" {
			return true
		}
		switch sel.Sel.Name {
		case "String", "Bool", "Int", "Int64", "Uint", "Uint64", "Float64", "Duration",
			"StringVar", "BoolVar", "IntVar", "Int64Var", "UintVar", "Uint64Var", "Float64Var", "DurationVar":
		default:
			return true
		}
		arg := call.Args[0]
		if sel.Sel.Name[len(sel.Sel.Name)-3:] == "Var" && len(call.Args) > 1 {
			arg = call.Args[1]
		}
		if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				names = append(names, name)
			}
		}
		return true
	})
	return names, nil
}
