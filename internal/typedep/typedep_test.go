package typedep

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mp"
)

// listingOneGraph builds the dependence graph of the paper's Listing 1:
// vect_mult(n, input, inout, ratio) with local res, called from foo with
// arr, val, scale. Expected partition: {arr,input}, {val,inout}, {scale},
// {ratio}, {res}.
func listingOneGraph() (*Graph, map[string]mp.VarID) {
	g := NewGraph()
	ids := map[string]mp.VarID{
		"input": g.Add("input", "vect_mult", Param),
		"inout": g.Add("inout", "vect_mult", Param),
		"ratio": g.Add("ratio", "vect_mult", Param),
		"res":   g.Add("res", "vect_mult", Scalar),
		"arr":   g.Add("arr", "foo", ArrayVar),
		"val":   g.Add("val", "foo", Scalar),
		"scale": g.Add("scale", "foo", Scalar),
	}
	g.Connect(ids["arr"], ids["input"]) // arr passed as input (pointer)
	g.Connect(ids["val"], ids["inout"]) // &val passed as inout
	return g, ids
}

func TestListingOnePartition(t *testing.T) {
	g, ids := listingOneGraph()
	if got := g.NumVars(); got != 7 {
		t.Fatalf("NumVars = %d, want 7", got)
	}
	if got := g.NumClusters(); got != 5 {
		t.Fatalf("NumClusters = %d, want 5", got)
	}
	if !g.SameCluster(ids["arr"], ids["input"]) {
		t.Error("arr and input should share a cluster")
	}
	if !g.SameCluster(ids["val"], ids["inout"]) {
		t.Error("val and inout should share a cluster")
	}
	if g.SameCluster(ids["scale"], ids["ratio"]) {
		t.Error("scale and ratio are independent scalars")
	}
	if g.SameCluster(ids["res"], ids["ratio"]) {
		t.Error("res and ratio are independent")
	}
}

func TestClustersAreAPartition(t *testing.T) {
	g, _ := listingOneGraph()
	clusters := g.Clusters()
	seen := make(map[mp.VarID]bool)
	for i, c := range clusters {
		if c.Index != i {
			t.Errorf("cluster %d has Index %d", i, c.Index)
		}
		if len(c.Members) == 0 {
			t.Errorf("cluster %d is empty", i)
		}
		for _, m := range c.Members {
			if seen[m] {
				t.Errorf("variable %d in two clusters", m)
			}
			seen[m] = true
		}
	}
	if len(seen) != g.NumVars() {
		t.Errorf("partition covers %d of %d variables", len(seen), g.NumVars())
	}
}

func TestClustersDeterministicOrder(t *testing.T) {
	g, _ := listingOneGraph()
	a := g.Clusters()
	b := g.Clusters()
	if len(a) != len(b) {
		t.Fatal("cluster count changed between calls")
	}
	for i := range a {
		if len(a[i].Members) != len(b[i].Members) {
			t.Fatalf("cluster %d size changed", i)
		}
		for j := range a[i].Members {
			if a[i].Members[j] != b[i].Members[j] {
				t.Fatalf("cluster %d member %d changed", i, j)
			}
		}
	}
	// Clusters sorted by smallest member, members ascending.
	prev := mp.VarID(-1)
	for _, c := range a {
		if c.Members[0] <= prev {
			t.Errorf("clusters not ordered by smallest member")
		}
		prev = c.Members[0]
		for j := 1; j < len(c.Members); j++ {
			if c.Members[j] <= c.Members[j-1] {
				t.Errorf("members not ascending in cluster %d", c.Index)
			}
		}
	}
}

func TestConnectAllAndTransitivity(t *testing.T) {
	g := NewGraph()
	a := g.Add("a", "f", Scalar)
	b := g.Add("b", "f", Scalar)
	c := g.Add("c", "f", Scalar)
	d := g.Add("d", "f", Scalar)
	g.ConnectAll(a, b, c)
	if !g.SameCluster(a, c) {
		t.Error("ConnectAll should be transitive")
	}
	if g.SameCluster(a, d) {
		t.Error("d should remain separate")
	}
	g.Connect(c, d)
	if !g.SameCluster(a, d) {
		t.Error("union should merge through c")
	}
	if g.NumClusters() != 1 {
		t.Errorf("NumClusters = %d, want 1", g.NumClusters())
	}
}

func TestConnectSelfIsNoop(t *testing.T) {
	g := NewGraph()
	a := g.Add("a", "f", Scalar)
	g.Connect(a, a)
	if g.NumClusters() != 1 {
		t.Errorf("NumClusters = %d, want 1", g.NumClusters())
	}
}

func TestDuplicateDeclarationPanics(t *testing.T) {
	g := NewGraph()
	g.Add("x", "f", Scalar)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate declaration")
		}
	}()
	g.Add("x", "f", Scalar)
}

// TestNamesContainingSeparator checks that a variable is keyed by its
// (unit, name) pair, not by a joined string: unit "a::b" with name "c" and
// unit "a" with name "b::c" are two variables, while a true duplicate
// still panics.
func TestNamesContainingSeparator(t *testing.T) {
	g := NewGraph()
	first := g.Add("c", "a::b", Pointer)
	second := g.Add("b::c", "a", Pointer)
	if first == second {
		t.Fatalf("both declarations got ID %d", first)
	}
	for _, v := range []struct {
		name, unit string
		want       mp.VarID
	}{{"c", "a::b", first}, {"b::c", "a", second}} {
		if id, ok := g.Lookup(v.name, v.unit); !ok || id != v.want {
			t.Errorf("Lookup(%q, %q) = %d, %v; want %d", v.name, v.unit, id, ok, v.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on a true duplicate")
		}
	}()
	g.Add("b::c", "a", Scalar)
}

func TestLookup(t *testing.T) {
	g, ids := listingOneGraph()
	id, ok := g.Lookup("res", "vect_mult")
	if !ok || id != ids["res"] {
		t.Errorf("Lookup(res) = %d, %v", id, ok)
	}
	if _, ok := g.Lookup("missing", "vect_mult"); ok {
		t.Error("Lookup of missing variable succeeded")
	}
}

func TestSearchSpaceSize(t *testing.T) {
	if got := SearchSpaceSize(2, 10); got.Cmp(big.NewInt(1024)) != 0 {
		t.Errorf("2^10 = %v", got)
	}
	if got := SearchSpaceSize(3, 4); got.Cmp(big.NewInt(81)) != 0 {
		t.Errorf("3^4 = %v", got)
	}
	// CFD's 195 variables: verify it exceeds uint64 range rather than
	// silently wrapping.
	var maxU64 big.Int
	maxU64.SetUint64(^uint64(0))
	if got := SearchSpaceSize(2, 195); got.Cmp(&maxU64) <= 0 {
		t.Error("2^195 should exceed uint64 range")
	}
}

func TestValidRespectsClusters(t *testing.T) {
	g, ids := listingOneGraph()
	prec := make(map[mp.VarID]mp.Prec)
	lookup := func(v mp.VarID) mp.Prec { return prec[v] }

	if !g.Valid(lookup) {
		t.Error("all-double must be valid")
	}
	// Demote a whole cluster: valid.
	prec[ids["arr"]] = mp.F32
	prec[ids["input"]] = mp.F32
	if !g.Valid(lookup) {
		t.Error("whole-cluster demotion must be valid")
	}
	// Split a cluster: invalid (does not compile).
	prec[ids["input"]] = mp.F64
	if g.Valid(lookup) {
		t.Error("split cluster must be invalid")
	}
}

func TestKindString(t *testing.T) {
	if Scalar.String() != "scalar" || ArrayVar.String() != "array" ||
		Param.String() != "param" || Pointer.String() != "pointer" {
		t.Error("kind names wrong")
	}
	if Kind(7).String() != "Kind(7)" {
		t.Error("unknown kind name wrong")
	}
}

// TestRandomGraphInvariants property-checks the union-find: for random edge
// sets, SameCluster must agree with the materialised partition and cluster
// count must equal vars minus distinct merges.
func TestRandomGraphInvariants(t *testing.T) {
	f := func(seed int64, nVars uint8, nEdges uint8) bool {
		n := int(nVars%30) + 1
		g := NewGraph()
		for i := 0; i < n; i++ {
			g.Add(string(rune('a'+i%26))+string(rune('0'+i/26)), "u", Scalar)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(nEdges%64); i++ {
			g.Connect(mp.VarID(rng.Intn(n)), mp.VarID(rng.Intn(n)))
		}
		clusters := g.Clusters()
		if len(clusters) != g.NumClusters() {
			return false
		}
		// Build membership map and cross-check SameCluster.
		of := make(map[mp.VarID]int)
		total := 0
		for _, c := range clusters {
			for _, m := range c.Members {
				of[m] = c.Index
				total++
			}
		}
		if total != n {
			return false
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if g.SameCluster(mp.VarID(a), mp.VarID(b)) != (of[mp.VarID(a)] == of[mp.VarID(b)]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// BenchmarkClusters measures partition extraction on a CFD-sized
// inventory (195 variables, 25 clusters), the hot query of search-space
// construction.
func BenchmarkClusters(b *testing.B) {
	g := NewGraph()
	var first [25]mp.VarID
	for i := 0; i < 195; i++ {
		id := g.Add(fmt.Sprintf("v%d", i), "u", Scalar)
		c := i % 25
		if i < 25 {
			first[c] = id
		} else {
			g.Connect(first[c], id)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(g.Clusters()); got != 25 {
			b.Fatalf("clusters = %d", got)
		}
	}
}
