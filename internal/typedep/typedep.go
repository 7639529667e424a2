// Package typedep reproduces the role Typeforge plays in the paper: an
// inter-procedural type-dependence analysis that partitions a program's
// floating-point variables into clusters that must change type together for
// the program to keep compiling.
//
// The paper's rule (Section II-C, Listing 1): an entity x is type-dependent
// on an entity y iff x's type may need to change as a consequence of a
// change to y's type. Pointer/array variables bound to pointer parameters
// share a base type with them, as do aliases established by pointer
// assignments; scalar-to-scalar assignments do NOT force a shared type
// because an implicit cast keeps the program valid. The analysis is purely
// type based and yields a true partition (disjoint type-change sets), so a
// union-find over the declared dependence edges computes it exactly.
//
// In the original tool chain the edges come from a C++ AST. The Go ports
// cannot parse the C sources they descend from, so each benchmark declares
// its variable inventory and dependence edges explicitly, mirroring the
// structure of the original source (the counts of Table II are reproduced
// exactly and tested). The search algorithms consume only the resulting
// partition, which is the same artifact FloatSmith receives from Typeforge
// via its JSON interchange format.
package typedep

import (
	"fmt"
	"math/big"
	"sort"

	"repro/internal/mp"
)

// Kind classifies a tunable program location, following the location kinds
// the paper enumerates for source-level analysis.
type Kind uint8

const (
	// Scalar is a local or global scalar variable.
	Scalar Kind = iota
	// ArrayVar is an array or dynamically allocated buffer.
	ArrayVar
	// Param is a function parameter.
	Param
	// Pointer is a pointer-typed variable that is not itself a buffer.
	Pointer
)

// String returns a short name for the kind.
func (k Kind) String() string {
	switch k {
	case Scalar:
		return "scalar"
	case ArrayVar:
		return "array"
	case Param:
		return "param"
	case Pointer:
		return "pointer"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Variable describes one tunable location.
type Variable struct {
	// ID is the dense index used by mp.Tape configurations.
	ID mp.VarID
	// Name is the source-level identifier, unique within Unit.
	Name string
	// Unit is the enclosing program component (function or module name).
	// The hierarchical search strategies group variables by Unit.
	Unit string
	// Kind classifies the location.
	Kind Kind
}

// Graph is a program's variable inventory plus its type-dependence edges.
// Build one with NewGraph, then declare variables and edges; Clusters and
// related queries may be called at any point and reflect the declarations
// so far.
type Graph struct {
	vars   []Variable
	parent []int // union-find forest over variable IDs
	byName map[varKey]mp.VarID
}

// varKey is a variable's (unit, name) declaration key.
type varKey struct{ unit, name string }

// NewGraph returns an empty dependence graph.
func NewGraph() *Graph {
	return &Graph{byName: make(map[varKey]mp.VarID)}
}

// Add declares a variable and returns its ID. The (unit, name) pair must be
// unique; Add panics on duplicates because a duplicate always indicates a
// benchmark declaration bug, never a runtime condition.
func (g *Graph) Add(name, unit string, kind Kind) mp.VarID {
	key := varKey{unit, name}
	if _, dup := g.byName[key]; dup {
		panic(fmt.Sprintf("typedep: duplicate variable %s::%s", unit, name))
	}
	id := mp.VarID(len(g.vars))
	g.vars = append(g.vars, Variable{ID: id, Name: name, Unit: unit, Kind: kind})
	g.parent = append(g.parent, int(id))
	g.byName[key] = id
	return id
}

// Connect records that a and b are type-dependent: any configuration must
// assign them the same precision. Connecting a variable to itself is a
// no-op.
func (g *Graph) Connect(a, b mp.VarID) {
	ra, rb := g.find(int(a)), g.find(int(b))
	if ra != rb {
		if ra > rb { // union by smaller root keeps cluster order stable
			ra, rb = rb, ra
		}
		g.parent[rb] = ra
	}
}

// ConnectAll links every listed variable into one type-change set. It is a
// convenience for parameter lists threaded through several functions.
func (g *Graph) ConnectAll(ids ...mp.VarID) {
	for i := 1; i < len(ids); i++ {
		g.Connect(ids[0], ids[i])
	}
}

// find walks to the root without path compression: inventories are small
// (at most a few hundred variables) and a read-only find keeps concurrent
// queries from the harness worker pool race-free.
func (g *Graph) find(x int) int {
	for g.parent[x] != x {
		x = g.parent[x]
	}
	return x
}

// NumVars returns the Total Variables count (the paper's TV metric).
func (g *Graph) NumVars() int { return len(g.vars) }

// Var returns the declaration of variable id.
func (g *Graph) Var(id mp.VarID) Variable { return g.vars[id] }

// Vars returns all declarations in ID order. The caller must not modify the
// returned slice.
func (g *Graph) Vars() []Variable { return g.vars }

// Lookup resolves a (unit, name) pair to its variable ID.
func (g *Graph) Lookup(name, unit string) (mp.VarID, bool) {
	id, ok := g.byName[varKey{unit, name}]
	return id, ok
}

// Cluster is one type-change set: variables that must share a precision.
type Cluster struct {
	// Index is the cluster's position in the deterministic cluster order.
	Index int
	// Members lists the variable IDs in ascending order.
	Members []mp.VarID
}

// Clusters returns the partition of all variables into type-change sets.
// The order is deterministic: clusters sorted by their smallest member ID.
// Its length is the Total Clusters count (the paper's TC metric).
func (g *Graph) Clusters() []Cluster {
	groups := make(map[int][]mp.VarID)
	for i := range g.vars {
		r := g.find(i)
		groups[r] = append(groups[r], mp.VarID(i))
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([]Cluster, len(roots))
	for i, r := range roots {
		members := groups[r]
		sort.Slice(members, func(a, b int) bool { return members[a] < members[b] })
		out[i] = Cluster{Index: i, Members: members}
	}
	return out
}

// NumClusters returns the Total Clusters count without materialising the
// partition.
func (g *Graph) NumClusters() int {
	n := 0
	for i := range g.vars {
		if g.find(i) == i {
			n++
		}
	}
	return n
}

// SameCluster reports whether a and b belong to the same type-change set.
func (g *Graph) SameCluster(a, b mp.VarID) bool {
	return g.find(int(a)) == g.find(int(b))
}

// SearchSpaceSize returns p^loc, the number of points in the search space
// over loc locations with p precision levels (the paper's Section II). It
// uses big.Int because realistic inventories (CFD: 195 variables) overflow
// uint64 immediately.
func SearchSpaceSize(precLevels, locations int) *big.Int {
	return new(big.Int).Exp(big.NewInt(int64(precLevels)), big.NewInt(int64(locations)), nil)
}

// Valid reports whether a precision assignment respects the partition: all
// members of every cluster share one precision. Source-level search
// strategies that ignore clusters (the hierarchical family in CRAFT) can
// propose assignments that split a cluster; such a program does not
// compile, so the evaluation harness fails it without running.
func (g *Graph) Valid(precOf func(mp.VarID) mp.Prec) bool {
	root := make(map[int]mp.Prec)
	for i := range g.vars {
		r := g.find(i)
		p := precOf(mp.VarID(i))
		if have, ok := root[r]; ok {
			if have != p {
				return false
			}
		} else {
			root[r] = p
		}
	}
	return true
}
