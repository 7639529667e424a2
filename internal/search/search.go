// Package search is the reproduction of the paper's search layer: the
// CRAFT generic search tool as driven by FloatSmith, plus the six
// strategies the paper compares - combinational (CB), compositional (CM),
// delta debugging (DD), hierarchical (HR), hierarchical-compositional
// (HC), and the genetic algorithm (GA) the paper adds to CRAFT.
//
// A strategy explores precision configurations over a Space of units.
// Following the paper's Section IV-A, the unit granularity differs by
// strategy: CB, DD, and GA operate on Typeforge clusters, while the
// current CRAFT implementations of CM, HR, and HC operate on individual
// variables. Variable-granularity search interacts with the type
// dependence analysis in two ways the paper highlights:
//
//   - CM composes single-variable changes, and Typeforge expands each
//     change to its full type-change set so the result compiles - which
//     makes members of one cluster redundant proposals and inflates the
//     evaluation count;
//   - HR's structural groups (functions, modules) can split a cluster, and
//     such configurations do not compile: they are charged as failed
//     evaluations, the "useless configurations" of Section IV-B.
//
// The space is parameterised by a precision ladder (mp.Ladder): rung 0 is
// the working precision and higher rungs are successively narrower
// formats. A Set assigns each unit a rung, and every strategy deepens the
// ladder in stages - stage r proposes raising units from rung r-1 to rung
// r - so that on the default two-rung ladder each strategy executes
// exactly its historical two-level search.
package search

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/mp"
	"repro/internal/typedep"
)

// Mode selects the unit granularity of a Space.
type Mode uint8

const (
	// ByCluster searches over Typeforge type-change sets: every proposed
	// configuration compiles by construction.
	ByCluster Mode = iota
	// ByVariable searches over individual variables, the granularity of
	// CRAFT's compositional and hierarchical implementations.
	ByVariable
)

// Unit is one search unit: the set of variables toggled together.
type Unit struct {
	// Label names the unit for traces (cluster index or variable name).
	Label string
	// Group is the enclosing program component (the variable's Unit for
	// ByVariable spaces; hierarchical strategies group by it).
	Group string
	// Vars lists the variable IDs the unit controls.
	Vars []mp.VarID
}

// Space is the search space over one benchmark's dependence graph.
type Space struct {
	graph  *typedep.Graph
	mode   Mode
	ladder mp.Ladder
	units  []Unit
}

// NewSpace builds the search space for g at the given granularity over
// the default two-rung ladder (double, single).
func NewSpace(g *typedep.Graph, mode Mode) *Space {
	return NewSpaceWithLadder(g, mode, mp.DefaultLadder())
}

// NewSpaceWithLadder builds the search space for g at the given
// granularity over an explicit precision ladder. The ladder must be
// valid (see mp.Ladder.Validate); rung 0 is the working precision.
func NewSpaceWithLadder(g *typedep.Graph, mode Mode, ladder mp.Ladder) *Space {
	if err := ladder.Validate(); err != nil {
		panic(fmt.Sprintf("search: %v", err))
	}
	s := &Space{graph: g, mode: mode, ladder: ladder}
	switch mode {
	case ByCluster:
		for _, c := range g.Clusters() {
			s.units = append(s.units, Unit{
				Label: fmt.Sprintf("cluster%d", c.Index),
				Group: g.Var(c.Members[0]).Unit,
				Vars:  c.Members,
			})
		}
	case ByVariable:
		for _, v := range g.Vars() {
			s.units = append(s.units, Unit{
				Label: v.Name,
				Group: v.Unit,
				Vars:  []mp.VarID{v.ID},
			})
		}
	default:
		panic(fmt.Sprintf("search: unknown mode %d", mode))
	}
	return s
}

// NumUnits returns the number of search units.
func (s *Space) NumUnits() int { return len(s.units) }

// Unit returns unit i.
func (s *Space) Unit(i int) Unit { return s.units[i] }

// Graph returns the underlying dependence graph.
func (s *Space) Graph() *typedep.Graph { return s.graph }

// Mode returns the unit granularity.
func (s *Space) Mode() Mode { return s.mode }

// Ladder returns the space's precision ladder.
func (s *Space) Ladder() mp.Ladder { return s.ladder }

// NumRungs returns the number of ladder rungs (2 for the default ladder).
func (s *Space) NumRungs() int { return len(s.ladder) }

// Expand materialises a unit-rung assignment as a variable-level
// precision configuration. For ByVariable spaces expand reports, in its
// second result, whether the configuration compiles: a selection that
// demotes part of a cluster but not all of it does not. A ByCluster
// configuration always compiles, since each unit is a whole cluster.
//
// When typeforgeExpand is true (the compositional strategies), each
// selected variable pulls its whole type-change set to its deepest
// selected rung, as Typeforge's transformation does to keep the
// refactored source compilable.
func (s *Space) Expand(set Set, typeforgeExpand bool) (bench.Config, bool) {
	rung := make([]uint8, s.graph.NumVars())
	for i := 0; i < len(s.units); i++ {
		r := uint8(set.Rung(i))
		if r == 0 {
			continue
		}
		for _, v := range s.units[i].Vars {
			if r > rung[v] {
				rung[v] = r
			}
		}
	}
	if s.mode == ByVariable && typeforgeExpand {
		// Pull every selected variable's cluster to its deepest rung.
		for _, c := range s.graph.Clusters() {
			var deepest uint8
			for _, m := range c.Members {
				if rung[m] > deepest {
					deepest = rung[m]
				}
			}
			if deepest > 0 {
				for _, m := range c.Members {
					rung[m] = deepest
				}
			}
		}
	}
	cfg := make(bench.Config, len(rung))
	for v, r := range rung {
		cfg[v] = s.ladder[r]
	}
	if s.mode == ByCluster {
		return cfg, true
	}
	valid := s.graph.Valid(func(v mp.VarID) mp.Prec { return cfg[v] })
	return cfg, valid
}

// Set assigns each search unit a ladder rung: 0 is the working
// precision, higher rungs are narrower formats. On a two-rung ladder it
// degenerates to the historical membership bitset (rung 1 = member).
type Set struct {
	digits []uint8
	n      int
}

// NewSet returns the all-working-precision set over n units.
func NewSet(n int) Set {
	return Set{digits: make([]uint8, n), n: n}
}

// FullSet returns the set with every unit at rung 1.
func FullSet(n int) Set {
	s := NewSet(n)
	for i := 0; i < n; i++ {
		s.Add(i)
	}
	return s
}

// Len returns the capacity (number of units addressed).
func (s Set) Len() int { return s.n }

// Has reports whether unit i sits below the working precision.
func (s Set) Has(i int) bool { return s.digits[i] != 0 }

// Rung returns unit i's ladder rung.
func (s Set) Rung(i int) int { return int(s.digits[i]) }

// Add moves unit i to rung 1 (the historical two-level demotion).
func (s *Set) Add(i int) { s.digits[i] = 1 }

// SetRung moves unit i to rung r.
func (s *Set) SetRung(i int, r uint8) { s.digits[i] = r }

// Remove restores unit i to the working precision.
func (s *Set) Remove(i int) { s.digits[i] = 0 }

// Count returns the number of units below the working precision.
func (s Set) Count() int {
	c := 0
	for _, d := range s.digits {
		if d != 0 {
			c++
		}
	}
	return c
}

// Clone returns an independent copy.
func (s Set) Clone() Set {
	out := Set{digits: make([]uint8, len(s.digits)), n: s.n}
	copy(out.digits, s.digits)
	return out
}

// Union returns the per-unit deepest rung of s and o. On a two-rung
// ladder this is exactly the historical bitwise union.
func (s Set) Union(o Set) Set {
	out := s.Clone()
	for i, d := range o.digits {
		if d > out.digits[i] {
			out.digits[i] = d
		}
	}
	return out
}

// Equal reports whether both sets assign identical rungs.
func (s Set) Equal(o Set) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.digits {
		if s.digits[i] != o.digits[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string identity.
func (s Set) Key() string {
	return s.String()
}

// Members returns the indices of units below the working precision in
// ascending order.
func (s Set) Members() []int {
	var out []int
	for i := 0; i < s.n; i++ {
		if s.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// String renders the set as a rung-digit mask for traces (0/1 on the
// default ladder).
func (s Set) String() string {
	b := make([]byte, s.n)
	for i, d := range s.digits {
		if d < 10 {
			b[i] = '0' + d
		} else {
			b[i] = 'a' + d - 10
		}
	}
	return string(b)
}
