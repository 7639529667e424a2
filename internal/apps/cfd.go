package apps

import (
	"fmt"
	"math"

	"repro/internal/bench"
	"repro/internal/mp"
	"repro/internal/typedep"
	"repro/internal/verify"
)

// cfd is the unstructured-grid finite volume solver for the compressible
// Euler equations (Rodinia cfd / euler3d lineage), reduced to a periodic
// one-dimensional tube: per iteration it computes a CFL step factor per
// cell, Rusanov fluxes at the faces, and advances density, momentum, and
// energy density. The quality metric applies MAE across all three conserved
// fields, as in the paper.
//
// Inventory (Table II: TV=195, TC=25): the five conserved-field buffers
// are threaded through nearly every routine's pointer parameters, giving
// five large clusters (~28 members each); four mid-size webs cover the
// step factors, face normals, areas, and farfield state; 16 independent
// scalars remain. The paper highlights exactly this shape: CFD has the
// most variables in the suite but clusters them into few type-change sets,
// so cluster-level searches collapse its space dramatically.
//
// Performance character: the flux kernel leans on libm (sqrt for the
// speed of sound), which stays on the double path, and the literal-heavy
// flux expressions cost casts when searched configurations demote the
// buffers (the literals themselves are out of a source tool's reach).
type cfd struct {
	app
	vRho, vMom, vEne, vFlux, vOld    mp.VarID
	vStep, vArea, vNormal, vFarfield mp.VarID
	vGamma, vPressure, vSoundSpeed   mp.VarID
	vLiterals                        mp.VarID // hidden: double literals
}

const (
	cfdCells = 2048
	cfdIters = 24
	cfdScale = 24
	// Per-cell per-iteration flop split: arithmetic follows the cluster
	// precision, the libm calls (speed of sound, flux smoothing) stay
	// double.
	cfdArithFlops = 40
	cfdLibmFlops  = 80
)

// cfdScalarNames are the 16 independent scalars of the merged solver.
var cfdScalarNames = []string{
	"gamma", "gamma_minus_1", "gas_constant", "pressure", "speed_sqd",
	"speed_of_sound", "de_p", "factor", "velocity", "smoothing",
	"cfl", "time_step", "flux_contribution", "p_rho", "residual", "mach",
}

// NewCFD constructs the application.
func NewCFD() bench.Benchmark {
	g := typedep.NewGraph()
	c := &cfd{app: app{
		name:   "CFD",
		desc:   "Unstructured-grid finite volume solver for the 3D Euler equations",
		metric: verify.MAE,
		graph:  g,
	}}
	// Five conserved-field webs: 4 x 28 + 1 x 27 = 139 variables.
	c.vRho = g.Add("density", "main", typedep.ArrayVar)
	addAliases(g, c.vRho, "compute_flux", "density", 27)
	c.vMom = g.Add("momentum", "main", typedep.ArrayVar)
	addAliases(g, c.vMom, "compute_flux", "momentum", 27)
	c.vEne = g.Add("energy", "main", typedep.ArrayVar)
	addAliases(g, c.vEne, "compute_flux", "energy", 27)
	c.vFlux = g.Add("fluxes", "main", typedep.ArrayVar)
	addAliases(g, c.vFlux, "compute_flux", "fluxes", 27)
	c.vOld = g.Add("old_variables", "main", typedep.ArrayVar)
	addAliases(g, c.vOld, "time_step", "old_variables", 26)
	// Four mid-size webs: 4 x 10 = 40 variables.
	c.vStep = g.Add("step_factors", "main", typedep.ArrayVar)
	addAliases(g, c.vStep, "compute_step_factor", "step_factors", 9)
	c.vArea = g.Add("areas", "main", typedep.ArrayVar)
	addAliases(g, c.vArea, "compute_step_factor", "areas", 9)
	c.vNormal = g.Add("normals", "main", typedep.ArrayVar)
	addAliases(g, c.vNormal, "compute_flux", "normals", 9)
	c.vFarfield = g.Add("ff_variable", "main", typedep.ArrayVar)
	addAliases(g, c.vFarfield, "initialize", "ff_variable", 9)
	// 16 independent scalars.
	ids := make(map[string]mp.VarID, len(cfdScalarNames))
	for _, n := range cfdScalarNames {
		ids[n] = g.Add(n, "euler3d", typedep.Scalar)
	}
	c.vGamma = ids["gamma"]
	c.vPressure = ids["pressure"]
	c.vSoundSpeed = ids["speed_of_sound"]
	if g.NumVars() != 195 || g.NumClusters() != 25 {
		panic(fmt.Sprintf("cfd: inventory %d/%d, want 195/25", g.NumVars(), g.NumClusters()))
	}
	// The hidden literal site occupies the slot after the inventory.
	c.vLiterals = mp.VarID(g.NumVars())
	return c
}

// HiddenVars implements bench.HiddenVarser: one site for the flux kernel's
// double literals.
func (c *cfd) HiddenVars() int { return 1 }

func (c *cfd) Run(t *mp.Tape, seed int64) bench.Output {
	t.SetScale(cfdScale)
	rng := t.Rand(seed)
	n := cfdCells
	rho := t.NewArray(c.vRho, n)
	mom := t.NewArray(c.vMom, n)
	ene := t.NewArray(c.vEne, n)
	flux := t.NewArray(c.vFlux, 3*n)
	old := t.NewArray(c.vOld, 3*n)
	step := t.NewArray(c.vStep, n)
	area := t.NewArray(c.vArea, n)
	normal := t.NewArray(c.vNormal, n)

	gamma := t.Value(c.vGamma, 1.4)
	// Smooth initial condition: a density/energy bump on a uniform flow.
	for i := 0; i < n; i++ {
		xpos := float64(i) / float64(n)
		bump := 0.2 * math.Exp(-40*(xpos-0.5)*(xpos-0.5))
		rho.Set(i, 1.0+bump)
		mom.Set(i, 0.4+0.1*bump)
		ene.Set(i, 2.5+bump)
		area.Set(i, 0.9+0.2*rng.Float64())
		normal.Set(i, 1.0)
	}

	pres := func(r, m, e float64) float64 {
		return (gamma - 1) * (e - 0.5*m*m/r)
	}
	arrP := t.Prec(c.vRho)
	litP := t.Prec(c.vLiterals)
	cfl := 0.3

	for iter := 0; iter < cfdIters; iter++ {
		// Save old variables.
		for i := 0; i < n; i++ {
			old.Set(3*i, rho.Get(i))
			old.Set(3*i+1, mom.Get(i))
			old.Set(3*i+2, ene.Get(i))
		}
		// Step factors from the local wave speed.
		for i := 0; i < n; i++ {
			r, m, e := rho.Get(i), mom.Get(i), ene.Get(i)
			p := pres(r, m, e)
			sos := math.Sqrt(gamma * p / r)
			step.Set(i, cfl/((math.Abs(m/r)+sos)*area.Get(i)))
		}
		// Rusanov fluxes at each face i+1/2.
		for i := 0; i < n; i++ {
			j := (i + 1) % n
			rl, ml, el := old.Get(3*i), old.Get(3*i+1), old.Get(3*i+2)
			rr, mr, er := old.Get(3*j), old.Get(3*j+1), old.Get(3*j+2)
			pl, pr := pres(rl, ml, el), pres(rr, mr, er)
			ul, ur := ml/rl, mr/rr
			al := math.Sqrt(gamma * pl / rl)
			ar := math.Sqrt(gamma * pr / rr)
			smax := math.Max(math.Abs(ul)+al, math.Abs(ur)+ar)
			nrm := normal.Get(i)
			flux.Set(3*i, nrm*(0.5*(ml+mr)-0.5*smax*(rr-rl)))
			flux.Set(3*i+1, nrm*(0.5*(ml*ul+pl+mr*ur+pr)-0.5*smax*(mr-ml)))
			flux.Set(3*i+2, nrm*(0.5*(ul*(el+pl)+ur*(er+pr))-0.5*smax*(er-el)))
		}
		// Advance the conserved fields.
		for i := 0; i < n; i++ {
			prev := (i - 1 + n) % n
			dt := step.Get(i)
			rho.Set(i, old.Get(3*i)-dt*(flux.Get(3*i)-flux.Get(3*prev)))
			mom.Set(i, old.Get(3*i+1)-dt*(flux.Get(3*i+1)-flux.Get(3*prev+1)))
			ene.Set(i, old.Get(3*i+2)-dt*(flux.Get(3*i+2)-flux.Get(3*prev+2)))
		}
	}

	work := uint64(cfdCells * cfdIters)
	t.AddFlops(arrP, cfdArithFlops*work)
	t.AddFlops(mp.F64, cfdLibmFlops*work)
	if arrP != litP {
		// The flux expressions mix demoted buffers with double literals:
		// two conversions per cell per iteration.
		t.AddCasts(2 * work)
	}

	out := make([]float64, 3*n)
	rho.SnapshotInto(out[:n], 0)
	mom.SnapshotInto(out[n:2*n], 0)
	ene.SnapshotInto(out[2*n:], 0)
	return bench.Output{Values: out}
}
