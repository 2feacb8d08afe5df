package sack_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameDeclaredTestsAndTargets: every test, benchmark or fuzz
// name that DESIGN.md, README.md or EXPERIMENTS.md puts in backticks is
// declared in some _test.go file, and every `make <target>` they name is
// a Makefile target. A cited name is split at "/" (a sub-benchmark's
// path), and a trailing "*" matches by prefix.
func TestDocsNameDeclaredTestsAndTargets(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([\w-]+):`).FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}

	span := regexp.MustCompile("`([^`]+)`")
	cited := regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)(\*?)`)
	makeTarget := regexp.MustCompile(`\bmake ([a-z][\w-]*)`)
	isDeclared := func(name string, prefix bool) bool {
		if !prefix {
			return declared[name]
		}
		for d := range declared {
			if strings.HasPrefix(d, name) {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(text), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, sp := range span.FindAllStringSubmatch(line, -1) {
				for _, m := range cited.FindAllStringSubmatch(sp[1], -1) {
					if !isDeclared(m[1], m[2] == "*") {
						t.Errorf("%s:%d cites %s%s, which no test declares", doc, i+1, m[1], m[2])
					}
				}
				for _, m := range makeTarget.FindAllStringSubmatch(sp[1], -1) {
					if !targets[m[1]] {
						t.Errorf("%s:%d cites `make %s`, which the Makefile lacks", doc, i+1, m[1])
					}
				}
			}
		}
	}
}
