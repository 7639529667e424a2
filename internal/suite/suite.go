// Package suite assembles the full HPC-MixPBench benchmark collection: the
// ten kernels of Table I and the seven proxy applications of Section
// III-B, with deterministic ordering and name-based lookup for the
// harness.
package suite

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/kernels"
)

// All returns every benchmark: kernels first (Table I order), then
// applications (Table II order).
func All() []bench.Benchmark {
	return append(kernels.All(), apps.All()...)
}

// Kernels returns the ten kernel benchmarks.
func Kernels() []bench.Benchmark { return kernels.All() }

// Apps returns the seven application benchmarks.
func Apps() []bench.Benchmark { return apps.All() }

// shared is the port set Lookup and Names resolve against, built once per
// process: constructing a port builds its type-dependence graph, and one
// instance serves every caller because a bench.Benchmark is stateless
// with respect to Run and its graph is read-only.
var shared = sync.OnceValue(All)

// Lookup resolves a benchmark by name, case-insensitively (harness
// configuration files write "kmeans" for "K-means"). Every lookup of a
// name returns the same process-wide instance; All returns fresh ones.
func Lookup(name string) (bench.Benchmark, error) {
	want := normalize(name)
	for _, b := range shared() {
		if normalize(b.Name()) == want {
			return b, nil
		}
	}
	return nil, fmt.Errorf("suite: unknown benchmark %q (have %s)", name, strings.Join(Names(), ", "))
}

// Names returns every benchmark name in suite order.
func Names() []string {
	all := shared()
	out := make([]string, len(all))
	for i, b := range all {
		out[i] = b.Name()
	}
	return out
}

// normalize lowercases and drops separators so "K-means", "kmeans", and
// "k_means" all match.
func normalize(s string) string {
	s = strings.ToLower(s)
	s = strings.ReplaceAll(s, "-", "")
	s = strings.ReplaceAll(s, "_", "")
	return s
}

// SortedNames returns every benchmark name in lexical order (for error
// messages and deterministic listings).
func SortedNames() []string {
	n := Names()
	sort.Strings(n)
	return n
}
