package suite

import (
	"strings"
	"testing"

	"repro/internal/bench"
)

func TestSuiteComposition(t *testing.T) {
	if got := len(Kernels()); got != 10 {
		t.Errorf("kernels = %d, want 10", got)
	}
	if got := len(Apps()); got != 7 {
		t.Errorf("apps = %d, want 7", got)
	}
	if got := len(All()); got != 17 {
		t.Errorf("total = %d, want 17", got)
	}
	for _, b := range Kernels() {
		if b.Kind() != bench.Kernel {
			t.Errorf("%s misclassified", b.Name())
		}
	}
	for _, b := range Apps() {
		if b.Kind() != bench.App {
			t.Errorf("%s misclassified", b.Name())
		}
	}
}

func TestNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range Names() {
		if seen[normalize(n)] {
			t.Errorf("duplicate benchmark name %q", n)
		}
		seen[normalize(n)] = true
	}
}

func TestLookupVariants(t *testing.T) {
	cases := map[string]string{
		"kmeans":        "K-means",
		"K-means":       "K-means",
		"k_means":       "K-means",
		"HOTSPOT":       "Hotspot",
		"banded-lin-eq": "banded-lin-eq",
		"bandedlineq":   "banded-lin-eq",
		"lavamd":        "LavaMD",
	}
	for in, want := range cases {
		b, err := Lookup(in)
		if err != nil {
			t.Errorf("Lookup(%q): %v", in, err)
			continue
		}
		if b.Name() != want {
			t.Errorf("Lookup(%q) = %s, want %s", in, b.Name(), want)
		}
	}
	if _, err := Lookup("quake3"); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

func TestSortedNames(t *testing.T) {
	n := SortedNames()
	if len(n) != 17 {
		t.Fatalf("SortedNames len = %d", len(n))
	}
	for i := 1; i < len(n); i++ {
		if n[i-1] >= n[i] {
			t.Fatalf("not sorted at %d: %q >= %q", i, n[i-1], n[i])
		}
	}
}

// TestFreshInstancesIndependent guards the contract that All returns
// fresh benchmark values whose graphs are safe to use concurrently with
// other instances.
func TestFreshInstancesIndependent(t *testing.T) {
	a := All()
	b := All()
	for i := range a {
		if a[i] == b[i] {
			t.Errorf("All() returned shared instance for %s", a[i].Name())
		}
		if a[i].Graph().NumVars() != b[i].Graph().NumVars() {
			t.Errorf("instances of %s disagree", a[i].Name())
		}
	}
}

// TestLookupSharesInstances checks that Lookup resolves names against
// one port set built once per process: two lookups of one name, in any
// spelling, return the same instance instead of constructing the suite
// again.
func TestLookupSharesInstances(t *testing.T) {
	for _, name := range Names() {
		a, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Lookup(strings.ToUpper(name))
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("two lookups of %s returned distinct instances", name)
		}
	}
}
