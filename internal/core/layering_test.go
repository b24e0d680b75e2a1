package core_test

import (
	"go/build"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestCoreLinksNoServer walks internal/core's transitive imports within the
// module, as the go tool selects its files for this platform, and pins them
// to the layers below it. The network clients and servers (remote, fleet,
// daemon) reach a session only through the backend registry, registered by
// whatever binary links them; the core links none of them.
func TestCoreLinksNoServer(t *testing.T) {
	const module = "repro/"
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var walk func(rel string)
	walk = func(rel string) {
		pkg, err := build.ImportDir(filepath.Join(root, rel), 0)
		if err != nil {
			t.Fatalf("import %s: %v", rel, err)
		}
		for _, imp := range pkg.Imports {
			if dep, ok := strings.CutPrefix(imp, module); ok && !seen[dep] {
				seen[dep] = true
				walk(dep)
			}
		}
	}
	walk("internal/core")
	var got []string
	for dep := range seen {
		got = append(got, dep)
	}
	slices.Sort(got)
	want := []string{
		"internal/backend", "internal/cache", "internal/faultinject", "internal/ipc",
		"internal/shm", "internal/vfs", "internal/wire",
	}
	if !slices.Equal(got, want) {
		t.Errorf("internal/core links %v, want exactly %v", got, want)
	}
}
