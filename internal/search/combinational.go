package search

// Combinational is the brute-force strategy (the paper's CB): it tries all
// combinations of clusters and keeps the fastest passing one. It is only
// tractable for the kernel benchmarks, which is exactly the role the paper
// assigns it - ground truth to compare the other strategies against. On a
// large space it simply runs until the analysis budget expires.
//
// Subsets are visited in descending size, so the most aggressive
// configurations (the likeliest big wins) are tested first and an early
// budget expiry still leaves a meaningful best-so-far.
type Combinational struct{}

// Name returns "CB".
func (Combinational) Name() string { return "CB" }

// Mode returns ByCluster.
func (Combinational) Mode() Mode { return ByCluster }

// Search enumerates every non-baseline rung assignment. On the default
// two-rung ladder this is every non-empty subset of the clusters, visited
// by descending size in lexicographic order - the exact historical
// enumeration. On deeper ladders it is every digit vector over the rungs,
// visited by descending rung sum so the most aggressive configurations
// still come first.
func (c Combinational) Search(e *Evaluator) Outcome {
	n := e.Space().NumUnits()
	p := e.Space().NumRungs()
	var (
		best    Set
		bestRes Result
		found   bool
		stopErr error
	)
	// evaluate reports false once the analysis must stop (budget
	// exhausted, canceled, faulted).
	evaluate := func(set Set) bool {
		r, err := e.Evaluate(set)
		if err != nil {
			stopErr = err
			return false
		}
		if r.Passed && (!found || r.Speedup > bestRes.Speedup) {
			best, bestRes, found = set, r, true
		}
		return true
	}
enumeration:
	for sum := n * (p - 1); sum >= 1; sum-- {
		var stop bool
		if p == 2 {
			// The historical two-level order: subsets of size sum as sorted
			// index lists, lexicographically.
			stop = forEachSubsetOfSize(n, sum, evaluate)
		} else {
			stop = forEachVectorOfSum(n, p, sum, evaluate)
		}
		if stop {
			break enumeration
		}
	}
	return finish(c.Name(), e, best, bestRes, found, stopErr)
}

// forEachSubsetOfSize visits every subset of {0..n-1} with exactly k
// members in lexicographic order, calling fn for each. fn returns false to
// stop; forEachSubsetOfSize then returns true.
func forEachSubsetOfSize(n, k int, fn func(Set) bool) bool {
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		set := NewSet(n)
		for _, i := range idx {
			set.Add(i)
		}
		if !fn(set) {
			return true
		}
		// Advance to the next combination.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return false
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// forEachVectorOfSum visits every rung assignment over n units and p
// ladder rungs whose digits total sum, in lexicographic digit order,
// calling fn for each. fn returns false to stop; forEachVectorOfSum then
// returns true. Enumeration is lazy - nothing proportional to p^n is ever
// materialised.
func forEachVectorOfSum(n, p, sum int, fn func(Set) bool) bool {
	digits := make([]uint8, n)
	var rec func(i, rem int) bool // true = stop requested
	rec = func(i, rem int) bool {
		if i == n {
			set := Set{digits: make([]uint8, n), n: n}
			copy(set.digits, digits)
			return !fn(set)
		}
		for d := 0; d < p; d++ {
			if d > rem {
				break
			}
			if rem-d > (n-i-1)*(p-1) {
				continue // the remaining units cannot absorb the rest
			}
			digits[i] = uint8(d)
			if rec(i+1, rem-d) {
				return true
			}
		}
		digits[i] = 0
		return false
	}
	return rec(0, sum)
}
