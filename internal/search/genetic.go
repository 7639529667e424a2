package search

import (
	"math/rand"
	"sort"
)

// Genetic is the paper's GA strategy, added to CRAFT for the study: it
// mimics natural selection over precision configurations. A configuration
// is a rung vector over the clusters (a bit array on the default
// two-rung ladder); the population starts random, the
// fittest individuals (fastest among those satisfying the error
// criterion) produce offspring by crossover, offspring mutate, and the
// loop stops after a fixed number of generations or when the best
// individual stagnates.
//
// Two properties the paper reports fall out of the parameters: the
// evaluation count is nearly constant (population x generations, bounded
// by the strict termination criterion, minus memoised duplicates), making
// GA's analysis time the easiest to predict; and the small iteration
// budget means the random walk sometimes misses configurations the
// deterministic strategies find - GA's result is the least deterministic
// of the six.
type Genetic struct {
	// Population is the number of individuals per generation.
	Population int
	// Generations bounds the number of generations.
	Generations int
	// Stagnation stops the search after this many generations without
	// improvement of the best individual.
	Stagnation int
	// Seed drives all randomness; a zero value seeds deterministically.
	Seed int64
}

// NewGenetic returns the configuration used in the paper's evaluation:
// a small population and few generations ("we significantly decrease the
// search time of GA by providing a small number of maximum iterations").
func NewGenetic(seed int64) Genetic {
	return Genetic{Population: 5, Generations: 4, Stagnation: 2, Seed: seed}
}

// Name returns "GA".
func (Genetic) Name() string { return "GA" }

// Mode returns ByCluster.
func (Genetic) Mode() Mode { return ByCluster }

// individual pairs a genome with its evaluation.
type individual struct {
	set Set
	res Result
}

// fitness orders individuals: passing beats failing, faster beats slower,
// and among failures a smaller error is closer to viability.
func fitness(r Result) float64 {
	if r.Passed {
		return 1 + r.Speedup
	}
	if !r.Valid {
		return 0
	}
	e := r.Verdict.Error
	if e != e { // NaN output: worst
		return 0
	}
	return 1 / (2 + e)
}

// Search runs the evolutionary loop. Each generation is bred in full
// before any of it is evaluated: the genomes of a generation depend only
// on the previous generation and the strategy RNG, never on each other's
// evaluations.
func (g Genetic) Search(e *Evaluator) Outcome {
	n := e.Space().NumUnits()
	p := e.Space().NumRungs()
	rng := rand.New(rand.NewSource(g.Seed + 0x9e3779b9))
	var (
		best    Set
		bestRes Result
		found   bool
		stopErr error
	)
	// evalAll evaluates one generation's genomes in order, up to the
	// first error, and folds the results into individuals, tracking the
	// best passing configuration.
	evalAll := func(genomes []Set) []individual {
		inds := make([]individual, 0, len(genomes))
		for _, set := range genomes {
			r, err := e.Evaluate(set)
			if err != nil {
				stopErr = err
				break
			}
			if r.Passed && (!found || r.Speedup > bestRes.Speedup) {
				best, bestRes, found = set.Clone(), r, true
			}
			inds = append(inds, individual{set: set, res: r})
		}
		return inds
	}

	// Initial random population: each unit draws a uniform rung. On the
	// default ladder this is the historical coin flip, same RNG draws.
	genomes := make([]Set, 0, g.Population)
	for i := 0; i < g.Population; i++ {
		set := NewSet(n)
		for b := 0; b < n; b++ {
			if d := rng.Intn(p); d > 0 {
				set.SetRung(b, uint8(d))
			}
		}
		genomes = append(genomes, set)
	}
	pop := evalAll(genomes)

	stale := 0
	for gen := 1; gen < g.Generations && stopErr == nil && stale < g.Stagnation; gen++ {
		sort.SliceStable(pop, func(a, b int) bool {
			return fitness(pop[a].res) > fitness(pop[b].res)
		})
		prevBest := fitness(pop[0].res)

		// Breed the full generation first - selection draws on the sorted
		// previous generation, so offspring are independent of each other's
		// evaluations - then evaluate it.
		children := make([]Set, 0, g.Population-1)
		for len(children) < g.Population-1 {
			a := tournament(pop, rng)
			b := tournament(pop, rng)
			child := crossover(a.set, b.set, rng)
			mutate(&child, p, rng)
			children = append(children, child)
		}
		pop = append([]individual{pop[0]}, evalAll(children)...) // elitism

		sort.SliceStable(pop, func(a, b int) bool {
			return fitness(pop[a].res) > fitness(pop[b].res)
		})
		if fitness(pop[0].res) > prevBest {
			stale = 0
		} else {
			stale++
		}
	}
	return finish(g.Name(), e, best, bestRes, found, stopErr)
}

// tournament picks the fitter of two random individuals.
func tournament(pop []individual, rng *rand.Rand) individual {
	a := pop[rng.Intn(len(pop))]
	b := pop[rng.Intn(len(pop))]
	if fitness(a.res) >= fitness(b.res) {
		return a
	}
	return b
}

// crossover mixes two genomes rung-wise (uniform crossover).
func crossover(a, b Set, rng *rand.Rand) Set {
	child := NewSet(a.Len())
	for i := 0; i < a.Len(); i++ {
		src := a
		if rng.Intn(2) == 1 {
			src = b
		}
		child.SetRung(i, uint8(src.Rung(i)))
	}
	return child
}

// mutate reassigns each unit's rung with probability 1/n. On the default
// two-rung ladder the reassignment is the historical bit flip and draws
// nothing extra from the RNG; on deeper ladders it draws one of the p-1
// other rungs uniformly.
func mutate(s *Set, p int, rng *rand.Rand) {
	n := s.Len()
	for i := 0; i < n; i++ {
		if rng.Intn(n) == 0 {
			if p == 2 {
				if s.Has(i) {
					s.Remove(i)
				} else {
					s.Add(i)
				}
			} else {
				s.SetRung(i, uint8((s.Rung(i)+1+rng.Intn(p-1))%p))
			}
		}
	}
}
