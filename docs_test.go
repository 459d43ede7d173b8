package loadctl

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The binaries whose documented command lines are checked against the
// flags they define.
var documentedBinaries = []string{"loadctld", "loadctlproxy"}

// definedFlags parses a binary's main.go and returns its package doc and
// the name of every flag it defines: the first string-literal argument of
// each flag.* call.
func definedFlags(t *testing.T, binary string) (doc string, flags map[string]bool) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", binary, "main.go"), nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	flags = map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || fmt.Sprint(sel.X) != "flag" {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				flags[name] = true
				break
			}
		}
		return true
	})
	return f.Doc.Text(), flags
}

// documentedCommands finds every `go run ./cmd/<binary> …` command line
// in text, with backslash continuations joined, and returns where each
// one starts ("name:line") and the -flags it passes. A command ends at a
// shell separator (& ; |), a comment (#) or the end of inline code (`).
func documentedCommands(binary, name, text string) (cmds []string, flags [][]string) {
	run := "go run ./cmd/" + binary
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		where := name + ":" + strconv.Itoa(i+1)
		line := lines[i]
		for strings.HasSuffix(strings.TrimRight(line, " \t"), `\`) && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(strings.TrimRight(line, " \t"), `\`) + " " + lines[i]
		}
		for _, rest := range strings.Split(line, run)[1:] {
			if end := strings.IndexAny(rest, "&;|#`"); end >= 0 {
				rest = rest[:end]
			}
			var fs []string
			for _, field := range strings.Fields(rest) {
				if _, err := strconv.ParseFloat(field, 64); err == nil || !strings.HasPrefix(field, "-") {
					continue // an argument or a negative value, not a flag
				}
				flag, _, _ := strings.Cut(strings.TrimLeft(field, "-"), "=")
				fs = append(fs, flag)
			}
			cmds, flags = append(cmds, where), append(flags, fs)
		}
	}
	return cmds, flags
}

// TestDocumentedCommandLinesUseRealFlags keeps the documentation honest:
// every -flag on a documented loadctld or loadctlproxy command line — in
// README.md, EXPERIMENTS.md, DESIGN.md or either binary's package doc —
// must be one that binary's main.go defines, so a deleted or renamed flag
// cannot linger in an example.
func TestDocumentedCommandLinesUseRealFlags(t *testing.T) {
	docs := map[string]string{}
	for _, name := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(b)
	}
	for _, binary := range documentedBinaries {
		doc, _ := definedFlags(t, binary)
		docs["cmd/"+binary+"/main.go (package doc)"] = doc
	}
	for _, binary := range documentedBinaries {
		_, defined := definedFlags(t, binary)
		if len(defined) == 0 {
			t.Fatalf("found no flag definitions in cmd/%s/main.go", binary)
		}
		var cmds []string
		var flags [][]string
		for name, text := range docs {
			c, f := documentedCommands(binary, name, text)
			cmds, flags = append(cmds, c...), append(flags, f...)
		}
		if len(cmds) == 0 {
			t.Fatalf("found no documented %s command lines", binary)
		}
		for i, fs := range flags {
			for _, fl := range fs {
				if !defined[fl] {
					t.Errorf("%s: %s has no flag -%s", cmds[i], binary, fl)
				}
			}
		}
	}
}

func TestDocumentedCommandsParsing(t *testing.T) {
	cmds, flags := documentedCommands("loadctld", "t", "x\n"+
		"go run ./cmd/loadctld -a 1 -b=2 \\\n"+
		"    --c -maxretry -1 # -d\n"+
		"for p in 1 2; do go run ./cmd/loadctld -e $p & done; go run ./cmd/loadctld -f | tee\n"+
		"inline `go run ./cmd/loadctld -g` then -h prose\n"+
		"go run ./cmd/loadctlproxy -i; go run ./cmd/loadctld\n")
	got := fmt.Sprint(cmds, flags)
	if want := "[t:2 t:4 t:4 t:5 t:6] [[a b c maxretry] [e] [f] [g] []]"; got != want {
		t.Fatalf("parsed %s, want %s", got, want)
	}
}
