package obs_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// metricCall matches a metric name literal passed to a registry
// constructor, across a line break after the parenthesis.
var metricCall = regexp.MustCompile(`\.(?:Counter|Gauge|Histogram)\(\s*"(hauberk_[a-z0-9_]+)"`)

// catalogRow matches one row of README's metric catalog.
var catalogRow = regexp.MustCompile("(?m)^\\| `(hauberk_[a-z0-9_]+)` \\|")

// TestReadmeMetricCatalog keeps README's metric catalog honest: every
// hauberk_* metric the shipped code registers has a catalog row, and
// every row names a metric some shipped code registers.
func TestReadmeMetricCatalog(t *testing.T) {
	root := filepath.Join("..", "..")
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, m := range catalogRow.FindAllStringSubmatch(string(readme), -1) {
		rows = append(rows, m[1])
	}
	if len(rows) == 0 {
		t.Fatal("README.md has no metric catalog rows")
	}

	emitted := map[string]string{} // metric → the first file registering it
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range metricCall.FindAllStringSubmatch(string(src), -1) {
			if _, ok := emitted[m[1]]; !ok {
				emitted[m[1]] = path
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, path := range emitted {
		if !slices.Contains(rows, name) {
			t.Errorf("%s registers %s, which README's metric catalog does not list", path, name)
		}
	}
	for _, name := range rows {
		if _, ok := emitted[name]; !ok {
			t.Errorf("README's metric catalog lists %s, which no shipped code registers", name)
		}
	}
}
