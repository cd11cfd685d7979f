package repro_test

import (
	"bufio"
	"go/build"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// liveDocs are the documents that describe the code as it is, so every
// name they put in backticks must still exist.
var liveDocs = []string{"README.md", "DESIGN.md"}

var (
	codeSpan = regexp.MustCompile("`([^`]+)`")
	goWord   = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	// goName is a backticked Go identifier: Name or pkg.Name.
	goName = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)?$`)
	// slashPath is a backticked slash-separated path, globs allowed. It
	// is a repository path when its first element is an entry of the
	// repository root or its last element has a file extension; other
	// slashed words (units such as wme-changes/s, sub-benchmark names)
	// are not checked.
	slashPath = regexp.MustCompile(`^([A-Za-z0-9_.\-]+)(/[A-Za-z0-9_.\-*]+)*/([A-Za-z0-9_\-*]+)(\.[A-Za-z0-9*]+)?/?$`)
)

// TestDocsNameLiveCode fails on any backticked repository path in
// README.md or DESIGN.md that does not exist, and on any backticked Go
// identifier (Name or pkg.Name) that appears in no .go file of the
// repository. Standard-library import paths pass; code spans holding
// whitespace (shell lines), flags and routes are not checked, nor are
// fenced code blocks.
func TestDocsNameLiveCode(t *testing.T) {
	words, files := goWordsAndFiles(t)
	for _, doc := range liveDocs {
		f, err := os.Open(doc)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		fenced := false
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			if strings.HasPrefix(strings.TrimSpace(text), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, m := range codeSpan.FindAllStringSubmatch(text, -1) {
				if why := deadReference(m[1], words, files); why != "" {
					t.Errorf("%s:%d: `%s` %s", doc, line, m[1], why)
				}
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// deadReference returns why tok names nothing live, or "" when it does
// or is not checked.
func deadReference(tok string, words, files map[string]bool) string {
	switch {
	case strings.ContainsAny(tok, " \t") || strings.HasPrefix(tok, "-") || strings.HasPrefix(tok, "/"):
		return ""
	case slashPath.MatchString(tok):
		m := slashPath.FindStringSubmatch(tok)
		if _, err := os.Stat(m[1]); err != nil && m[4] == "" {
			return ""
		}
		if matches, _ := filepath.Glob(strings.TrimSuffix(tok, "/")); len(matches) > 0 {
			return ""
		}
		// The standard library has its own internal/ tree.
		if pkg, err := build.Default.Import(tok, "", build.FindOnly); err == nil && pkg.Goroot {
			return ""
		}
		return "names no file or directory in the repository"
	case strings.HasSuffix(tok, ".go") || strings.HasSuffix(tok, ".md"):
		if files[tok] {
			return ""
		}
		return "names no file in the repository"
	case goName.MatchString(tok):
		for _, w := range strings.Split(tok, ".") {
			if !words[w] {
				return "names no identifier in any .go file"
			}
		}
	}
	return ""
}

// goWordsAndFiles returns every identifier-shaped word of every .go
// file under the repository root and the base names of its files.
func goWordsAndFiles(t *testing.T) (words, files map[string]bool) {
	t.Helper()
	words, files = map[string]bool{}, map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		files[d.Name()] = true
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, w := range goWord.FindAll(src, -1) {
			words[string(w)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return words, files
}

var (
	// ciTestFlag is a -run or -bench flag in a CI step and its pattern,
	// quoted or bare.
	ciTestFlag = regexp.MustCompile(`-(run|bench)[= ]('[^']*'|"[^"]*"|[^\s'"]+)`)
	// testFunc is a top-level test, fuzz or benchmark function.
	testFunc = regexp.MustCompile(`(?m)^func ((Test|Fuzz|Benchmark)\w*)\(`)
)

// TestCIRunPatternsNameLiveTests fails when an alternative of a -run or
// -bench pattern in .github/workflows/*.yml or the Makefile matches no
// function of the repository that the flag selects (tests and fuzz
// targets for -run, benchmarks for -bench): a CI step whose
// pattern names a renamed or folded test runs nothing and still passes.
// Only the top level of a pattern is checked (subtest parts after "/"
// are not), split at every "|", and "^$", which selects nothing on
// purpose, is exempt.
func TestCIRunPatternsNameLiveTests(t *testing.T) {
	funcs := map[string][]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			flag := "run"
			if m[2] == "Benchmark" {
				flag = "bench"
			}
			funcs[flag] = append(funcs[flag], m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(".github/workflows/*.yml")
	checked := 0
	for _, file := range append(files, "Makefile") {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		if file == "Makefile" {
			text = strings.ReplaceAll(text, "$$", "$")
		}
		for i, line := range strings.Split(text, "\n") {
			for _, m := range ciTestFlag.FindAllStringSubmatch(line, -1) {
				flag, pattern := m[1], strings.Trim(m[2], `'"`)
				if pattern == "^$" {
					continue
				}
				top, _, _ := strings.Cut(pattern, "/")
				for _, alt := range strings.Split(top, "|") {
					checked++
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%s:%d: -%s alternative %q: %v", file, i+1, flag, alt, err)
					} else if !slices.ContainsFunc(funcs[flag], re.MatchString) {
						t.Errorf("%s:%d: -%s alternative %q matches no function in the repository", file, i+1, flag, alt)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run or -bench pattern in the CI files; the check is not looking at them")
	}
}
