package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/mp"
	"repro/internal/runcache"
	"repro/internal/search"
	"repro/internal/store"
	"repro/internal/suite"
)

// The layer ladder times calls into each layer's public functions with
// testing.Benchmark closures, from the bottom of the stack up: rounding,
// the tape and its arrays, one port's Run, an evaluation cold and from
// the memo, a delta-debugging search, a run-cache hit, and the result
// store. The values compare across runs of the same benchtime.

var sinkFloat float64

// ddKernel is the kernel the search rung runs delta debugging on: its
// 1e-8 search bisects over several clusters instead of accepting or
// rejecting the whole program at once.
const ddKernel = "banded-lin-eq"

// ladder runs every rung and returns its values by metric name.
func ladder(seed int64, benchtime string) (map[string]float64, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	var errs []error
	// rung records f's time per call in units of scale nanoseconds.
	rung := func(name string, scale float64, f func(b *testing.B)) {
		r := testing.Benchmark(f)
		if r.N == 0 {
			errs = append(errs, fmt.Errorf("ladder rung %s did not run", name))
			return
		}
		out[name] = float64(r.T.Nanoseconds()) / float64(r.N) / scale
	}
	const ns, us, ms = 1, 1e3, 1e6

	for _, p := range []struct {
		name string
		prec mp.Prec
	}{{"mp.round_f64_ns", mp.F64}, {"mp.round_f32_ns", mp.F32}, {"mp.round_bf16_ns", mp.BF16}} {
		rung(p.name, ns, func(b *testing.B) {
			x := 0.0
			for i := 0; i < b.N; i++ {
				x = p.prec.Round(x + 1.25)
			}
			sinkFloat = x
		})
	}
	rung("mp.tape_assign_ns", ns, func(b *testing.B) {
		tape := mp.NewTape(2)
		tape.SetPrec(1, mp.F32)
		x := 0.0
		for i := 0; i < b.N; i++ {
			x = tape.Assign(0, x+1.0, 1, 1)
		}
		sinkFloat = x
	})
	rung("mp.array_get_ns", ns, func(b *testing.B) {
		a := mp.NewTape(1).NewArray(0, 1024)
		x := 0.0
		for i := 0; i < b.N; i++ {
			x += a.Get(i & 1023)
		}
		sinkFloat = x
	})
	rung("mp.array_set_ns", ns, func(b *testing.B) {
		tape := mp.NewTape(1)
		tape.SetPrec(0, mp.F32)
		a := tape.NewArray(0, 1024)
		for i := 0; i < b.N; i++ {
			a.Set(i&1023, 1.5)
		}
	})

	// One port's Run through a compiled runner with no run cache, on the
	// all-single configuration: the kernel is specialized and the input
	// stream recorded on the first call, as in a campaign.
	for _, bm := range suite.All() {
		runner := newRunner(seed)
		cfg := bench.AllSingle(bm.Graph().NumVars())
		rung("bench.run_ms."+safeName(bm.Name()), ms, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runner.Run(bm, cfg)
			}
		})
	}

	dd, err := suite.Lookup(ddKernel)
	if err != nil {
		return nil, err
	}
	space := search.NewSpace(dd.Graph(), search.ByCluster)
	full := search.FullSet(space.NumUnits())
	runner := newRunner(seed)
	rung("search.evaluate_cold_us", us, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := search.NewEvaluator(space, runner, dd, 1e-8)
			b.StartTimer()
			if _, err := e.Evaluate(full); err != nil {
				b.Fatal(err)
			}
		}
	})
	rung("search.evaluate_memo_ns", ns, func(b *testing.B) {
		e := search.NewEvaluator(space, runner, dd, 1e-8)
		for i := 0; i <= b.N; i++ {
			if i == 1 {
				b.ResetTimer() // the first call executes; the rest hit the memo
			}
			if _, err := e.Evaluate(full); err != nil {
				b.Fatal(err)
			}
		}
	})
	rung("search.dd_search_ms", ms, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			search.DeltaDebug{}.Search(search.NewEvaluator(space, runner, dd, 1e-8))
		}
	})

	// The cache and store rungs hold a K-means result (about 9 KB
	// encoded), the service campaign's first entry.
	km, err := suite.Lookup("kmeans")
	if err != nil {
		return nil, err
	}
	cfg := bench.AllSingle(km.Graph().NumVars())
	res := runner.Run(km, cfg)
	rung("runcache.hit_ns", ns, func(b *testing.B) {
		c := bench.NewCache(nil)
		key := runcache.Key{Bench: km.Name(), Seed: seed, Config: cfg.Key()}
		fill := func() bench.Result { return res }
		for i := 0; i <= b.N; i++ {
			if i == 1 {
				b.ResetTimer() // the first call fills the entry
			}
			c.Do(key, fill)
		}
	})
	if err := storeRungs(rung, seed, bench.EncodeResult(nil, res)); err != nil {
		return nil, err
	}
	return out, errors.Join(errs...)
}

// newRunner is a compiled runner with its own compiler and no run cache.
func newRunner(seed int64) *bench.Runner {
	r := bench.NewRunner(seed)
	r.Compiler = compile.New(nil)
	return r
}

// openStoreRecords is the size of the store store.open_ms reopens.
const openStoreRecords = 1000

// storeRungs times the result store: a durable Put (Put then Sync, one
// fsync each), a Get of a stored record, and reopening a store of
// openStoreRecords records. val is one encoded bench.Result.
func storeRungs(rung func(string, float64, func(*testing.B)), seed int64, val []byte) (err error) {
	dir, err := os.MkdirTemp("", "store-ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := store.Options{Fingerprint: bench.DefaultStoreFingerprint()}
	key := func(i int) []byte { return runcache.Key{Bench: "ladder", Seed: seed + int64(i)}.AppendBinary(nil) }

	st, err := store.Open(dir+"/rw", opts)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, st.Close()) }()
	puts := 0
	rung("store.put_sync_us", 1e3, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			puts++
			st.Put(key(puts), val)
			if err := st.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	})
	rung("store.get_us", 1e3, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := st.Get(key(1 + i%puts)); !ok {
				b.Fatal("stored record not found")
			}
		}
	})

	fixed, err := store.Open(dir+"/open", opts)
	if err != nil {
		return err
	}
	for i := 0; i < openStoreRecords; i++ {
		fixed.Put(key(i), val)
	}
	if err := fixed.Close(); err != nil {
		return err
	}
	rung("store.open_ms", 1e6, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := store.Open(dir+"/open", opts)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	return nil
}

// envProbe measures the machine itself, so drift between runs shows: a
// pure-Go integer loop and a large memory copy.
type envProbe struct {
	calibMs, copyGBs []float64
}

const calibIterations = 20_000_000

var sinkUint uint64

func (e *envProbe) measure() {
	t := now()
	x := uint64(1)
	for i := 0; i < calibIterations; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 17
	}
	sinkUint += x
	e.calibMs = append(e.calibMs, since(t)*1e3)

	n := copyBytes()
	src, dst := make([]byte, n), make([]byte, n)
	copy(dst, src) // fault the pages in before timing
	t = now()
	const passes = 4
	for i := 0; i < passes; i++ {
		copy(dst, src)
	}
	e.copyGBs = append(e.copyGBs, passes*float64(n)/since(t)/1e9)
	src, dst = nil, nil
	debug.FreeOSMemory()
}

// maxCopyBytes caps the copy probe's buffers; on a machine with a large
// last-level cache the probe then measures less than 4x the LLC, which
// the environment record shows (copy_bytes against llc_bytes).
const maxCopyBytes = 128 << 20

// copyBytes sizes each copy buffer at four times the last-level cache,
// capped at maxCopyBytes.
func copyBytes() int {
	llc := llcBytes()
	if llc == 0 {
		return maxCopyBytes
	}
	return min(4*llc, maxCopyBytes)
}

// llcBytes reads the size of cpu0's last-level cache (0 when unknown).
func llcBytes() int {
	best := 0
	for idx := 0; idx < 8; idx++ {
		data, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", idx))
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(data))
		mult := 1
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.Atoi(s); err == nil {
			best = max(best, v*mult)
		}
	}
	return best
}

// environment is the record every output carries.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit,omitempty"`
	LLCBytes   int    `json:"llc_bytes"`
	CopyBytes  int    `json:"copy_bytes"`
}

func readEnvironment() environment {
	env := environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		LLCBytes:   llcBytes(),
		CopyBytes:  copyBytes(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The commit is known only in a git checkout; elsewhere it is omitted.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}
