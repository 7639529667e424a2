package search

// Compositional is the paper's CM strategy, after FloatSmith: replace each
// variable individually, then repeatedly combine passing configurations
// until no composition produces anything new. The CRAFT implementation
// operates on individual variables, with Typeforge expanding each change
// to its type-change set so every variant compiles; members of one cluster
// are therefore redundant proposals, which is why the paper observes CM
// evaluating far more configurations than the cluster-level strategies -
// and timing out on variable-rich applications at loose thresholds, where
// almost every single-variable change passes and the composition frontier
// explodes combinatorially.
//
// Per the paper, "heuristics are used to reduce the number of
// configurations, but this strategy will be as slow as the combinational
// strategy when many variables can be replaced": the memoisation of
// repeated proposals is the reduction, and the composition closure is
// otherwise complete. Where few single-variable changes pass, the closure
// is small and CM terminates quickly (SRAD); where the passing set maps to
// k distinct clusters the closure is their full power set (LavaMD's 2^11 =
// 2048 configurations); and where nearly everything passes the closure is
// astronomically large and the 24-hour budget expires first - the paper's
// empty CM cells.
type Compositional struct{}

// Name returns "CM".
func (Compositional) Name() string { return "CM" }

// Mode returns ByVariable.
func (Compositional) Mode() Mode { return ByVariable }

// Search runs the individual phase and then the composition loop.
func (c Compositional) Search(e *Evaluator) Outcome {
	e.SetTypeforgeExpand(true)
	n := e.Space().NumUnits()
	var (
		best    Set
		bestRes Result
		found   bool
		stopErr error
	)
	consider := func(set Set, r Result) {
		if r.Passed && (!found || r.Speedup > bestRes.Speedup) {
			best, bestRes, found = set, r, true
		}
	}

	// Phase 1: every variable individually - once per ladder rung below
	// the working precision, shallowest rung first (on the default ladder
	// this is the single historical pass).
	var passing []cmCand
	seen := map[string]bool{}
	p := e.Space().NumRungs()
singles:
	for r := 1; r < p; r++ {
		for i := 0; i < n; i++ {
			set := NewSet(n)
			set.SetRung(i, uint8(r))
			res, err := e.Evaluate(set)
			if err != nil {
				stopErr = err
				break singles
			}
			consider(set, res)
			if key := e.Key(set); res.Passed && !seen[key] {
				seen[key] = true
				passing = append(passing, cmCand{set, res})
			}
		}
	}

	// Phase 2: compose passing configurations pairwise until the frontier
	// is empty. The search terminates when there are no compositions left.
	frontier := append([]cmCand(nil), passing...)
	for len(frontier) > 0 && stopErr == nil {
		var next []cmCand
	compose:
		for _, f := range frontier {
			for _, p := range passing {
				u := f.set.Union(p.set)
				if u.Equal(f.set) || u.Equal(p.set) {
					continue
				}
				key := e.Key(u)
				if seen[key] {
					continue
				}
				seen[key] = true
				r, err := e.Evaluate(u)
				if err != nil {
					stopErr = err
					break compose
				}
				consider(u, r)
				if r.Passed {
					next = append(next, cmCand{u, r})
				}
			}
		}
		passing = append(passing, next...)
		frontier = next
	}
	return finish(c.Name(), e, best, bestRes, found, stopErr)
}

// cmCand pairs a composition with its evaluation.
type cmCand struct {
	set Set
	res Result
}
