package banger_test

import (
	"os"
	"strings"
	"testing"
)

// TestDesignInventoryCoversEveryPackage: DESIGN.md's system inventory
// (§3) has a row for every internal/* package, so the table cannot fall
// behind the tree.
func TestDesignInventoryCoversEveryPackage(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, inventory, _ := strings.Cut(string(doc), "## 3. System inventory")
	inventory, _, _ = strings.Cut(inventory, "\n## ")
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() && !strings.Contains(inventory, "\n| `internal/"+d.Name()+"` |") {
			t.Errorf("DESIGN.md §3 has no row for internal/%s", d.Name())
		}
	}
}
