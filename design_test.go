package secyan

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDesignReferencesResolve keeps DESIGN.md describing the code as it
// is: every Test, Fuzz or Benchmark function it names must be defined in
// some _test.go file, and every dir/file.go path it names must exist at
// the root or under internal/.
func TestDesignReferencesResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	funcDecl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcDecl.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var stale []string
	testName := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	for _, name := range testName.FindAllString(string(design), -1) {
		if !defined[name] {
			stale = append(stale, "function "+name)
		}
	}
	goPath := regexp.MustCompile(`\b[\w.-]+(?:/[\w.-]+)*/\w+\.go\b`)
	for _, path := range goPath.FindAllString(string(design), -1) {
		if !exists(path) && !exists(filepath.Join("internal", path)) {
			stale = append(stale, "path "+path)
		}
	}
	if len(stale) > 0 {
		slices.Sort(stale)
		t.Fatalf("DESIGN.md names what the tree does not have:\n%s", strings.Join(slices.Compact(stale), "\n"))
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
