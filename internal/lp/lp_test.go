package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mecache/internal/rng"
)

func solve(t *testing.T, p *Problem) Solution {
	t.Helper()
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func TestTextbookMaximization(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  ->  x=2, y=6, obj=36.
	// As minimization of the negation.
	p := NewProblem(2)
	if err := p.SetObjective([]float64{-3, -5}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		a   []float64
		rhs float64
	}{
		{[]float64{1, 0}, 4},
		{[]float64{0, 2}, 12},
		{[]float64{3, 2}, 18},
	} {
		if err := p.AddConstraint(c.a, LE, c.rhs); err != nil {
			t.Fatal(err)
		}
	}
	sol := solve(t, p)
	if math.Abs(sol.X[0]-2) > 1e-7 || math.Abs(sol.X[1]-6) > 1e-7 {
		t.Fatalf("X = %v, want [2 6]", sol.X)
	}
	if math.Abs(sol.Objective-(-36)) > 1e-7 {
		t.Fatalf("objective = %v, want -36", sol.Objective)
	}
}

func TestEqualityAndGE(t *testing.T) {
	// min x + 2y s.t. x + y = 10, x >= 3  ->  x=10 is cheapest: y=0, obj=10.
	p := NewProblem(2)
	if err := p.SetObjective([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]float64{1, 1}, EQ, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]float64{1, 0}, GE, 3); err != nil {
		t.Fatal(err)
	}
	sol := solve(t, p)
	if math.Abs(sol.Objective-10) > 1e-7 {
		t.Fatalf("objective = %v, want 10", sol.Objective)
	}
	if math.Abs(sol.X[0]-10) > 1e-7 {
		t.Fatalf("x = %v, want 10", sol.X[0])
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// -x <= -5 is x >= 5; min x -> 5.
	p := NewProblem(1)
	if err := p.SetObjective([]float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]float64{-1}, LE, -5); err != nil {
		t.Fatal(err)
	}
	sol := solve(t, p)
	if math.Abs(sol.X[0]-5) > 1e-7 {
		t.Fatalf("x = %v, want 5", sol.X[0])
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	if err := p.AddConstraint([]float64{1}, LE, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]float64{1}, GE, 2); err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve()
	if !errors.Is(err, ErrInfeasible) || sol.Status != Infeasible {
		t.Fatalf("got (%v, %v), want Infeasible", sol.Status, err)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(1)
	if err := p.SetObjective([]float64{-1}); err != nil { // min -x with x free upward
		t.Fatal(err)
	}
	if err := p.AddConstraint([]float64{1}, GE, 0); err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve()
	if !errors.Is(err, ErrUnbounded) || sol.Status != Unbounded {
		t.Fatalf("got (%v, %v), want Unbounded", sol.Status, err)
	}
}

func TestDegenerateNoCycle(t *testing.T) {
	// Beale's classic cycling example; Bland's rule must terminate.
	p := NewProblem(4)
	if err := p.SetObjective([]float64{-0.75, 150, -0.02, 6}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]float64{0.25, -60, -0.04, 9}, LE, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]float64{0.5, -90, -0.02, 3}, LE, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]float64{0, 0, 1, 0}, LE, 1); err != nil {
		t.Fatal(err)
	}
	sol := solve(t, p)
	if math.Abs(sol.Objective-(-0.05)) > 1e-6 {
		t.Fatalf("Beale objective = %v, want -0.05", sol.Objective)
	}
}

func TestRedundantEqualityRows(t *testing.T) {
	// Duplicate equality constraints leave a redundant artificial basic at 0.
	p := NewProblem(2)
	if err := p.SetObjective([]float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]float64{1, 1}, EQ, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]float64{2, 2}, EQ, 8); err != nil {
		t.Fatal(err)
	}
	sol := solve(t, p)
	if math.Abs(sol.Objective-4) > 1e-7 {
		t.Fatalf("objective = %v, want 4", sol.Objective)
	}
}

func TestSparseConstraint(t *testing.T) {
	p := NewProblem(5)
	if err := p.SetObjective([]float64{1, 1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddSparseConstraint([]int{0, 4}, []float64{1, 1}, GE, 2); err != nil {
		t.Fatal(err)
	}
	sol := solve(t, p)
	if math.Abs(sol.Objective-2) > 1e-7 {
		t.Fatalf("objective = %v, want 2", sol.Objective)
	}
}

func TestValidation(t *testing.T) {
	p := NewProblem(2)
	if err := p.SetObjective([]float64{1}); err == nil {
		t.Fatal("objective length mismatch not rejected")
	}
	if err := p.AddConstraint([]float64{1}, LE, 1); err == nil {
		t.Fatal("constraint length mismatch not rejected")
	}
	if err := p.AddConstraint([]float64{1, 1}, Relation(0), 1); err == nil {
		t.Fatal("invalid relation not rejected")
	}
	if err := p.AddConstraint([]float64{1, 1}, LE, math.NaN()); err == nil {
		t.Fatal("NaN rhs not rejected")
	}
	if err := p.SetObjectiveCoeff(5, 1); err == nil {
		t.Fatal("out-of-range objective index not rejected")
	}
	if err := p.AddSparseConstraint([]int{9}, []float64{1}, LE, 1); err == nil {
		t.Fatal("out-of-range sparse index not rejected")
	}
}

// feasible checks that x satisfies every constraint of p within tolerance.
func feasible(p *Problem, x []float64) bool {
	for _, xv := range x {
		if xv < -1e-7 {
			return false
		}
	}
	for _, c := range p.constraints {
		lhs := 0.0
		for j, a := range c.coeffs {
			lhs += a * x[j]
		}
		switch c.rel {
		case LE:
			if lhs > c.rhs+1e-6 {
				return false
			}
		case GE:
			if lhs < c.rhs-1e-6 {
				return false
			}
		case EQ:
			if math.Abs(lhs-c.rhs) > 1e-6 {
				return false
			}
		}
	}
	return true
}

// TestRandomBoundedLPs: random LE-only LPs with non-negative coefficients
// and positive RHS are always feasible (x = 0) and bounded (costs >= 0).
// The simplex solution must be feasible and beat a dense random sample of
// feasible points.
func TestRandomBoundedLPs(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(4)
		m := 1 + r.Intn(4)
		p := NewProblem(n)
		obj := make([]float64, n)
		for j := range obj {
			obj[j] = r.FloatRange(-5, 5)
		}
		if err := p.SetObjective(obj); err != nil {
			return false
		}
		// Box constraints keep it bounded.
		for j := 0; j < n; j++ {
			row := make([]float64, n)
			row[j] = 1
			if err := p.AddConstraint(row, LE, r.FloatRange(1, 10)); err != nil {
				return false
			}
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = r.FloatRange(0, 3)
			}
			if err := p.AddConstraint(row, LE, r.FloatRange(1, 20)); err != nil {
				return false
			}
		}
		sol, err := p.Solve()
		if err != nil || sol.Status != Optimal {
			return false
		}
		if !feasible(p, sol.X) {
			return false
		}
		// Random feasible points must not beat the simplex optimum.
		for trial := 0; trial < 200; trial++ {
			x := make([]float64, n)
			for j := range x {
				x[j] = r.FloatRange(0, 10)
			}
			if !feasible(p, x) {
				continue
			}
			v := 0.0
			for j := range x {
				v += obj[j] * x[j]
			}
			if v < sol.Objective-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Fatal(err)
	}
}

// TestTransportationOptimal cross-checks the simplex on a transportation
// problem with a known optimum.
func TestTransportationOptimal(t *testing.T) {
	// 2 supplies (10, 20), 2 demands (15, 15).
	// costs: s0->d0:1 s0->d1:4 s1->d0:2 s1->d1:1
	// Optimal: x00=10, x10=5, x11=15 -> 10*1 + 5*2 + 15*1 = 35.
	p := NewProblem(4) // x00 x01 x10 x11
	if err := p.SetObjective([]float64{1, 4, 2, 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]float64{1, 1, 0, 0}, EQ, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]float64{0, 0, 1, 1}, EQ, 20); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]float64{1, 0, 1, 0}, EQ, 15); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]float64{0, 1, 0, 1}, EQ, 15); err != nil {
		t.Fatal(err)
	}
	sol := solve(t, p)
	if math.Abs(sol.Objective-35) > 1e-7 {
		t.Fatalf("objective = %v, want 35", sol.Objective)
	}
}

func TestStatusStrings(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Fatal("status strings wrong")
	}
	if LE.String() != "<=" || EQ.String() != "==" || GE.String() != ">=" {
		t.Fatal("relation strings wrong")
	}
}

func BenchmarkSimplex30x60(b *testing.B) {
	r := rng.New(1)
	n, m := 60, 30
	p := NewProblem(n)
	obj := make([]float64, n)
	for j := range obj {
		obj[j] = r.FloatRange(0, 5)
	}
	if err := p.SetObjective(obj); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = r.FloatRange(0, 2)
		}
		if err := p.AddConstraint(row, GE, r.FloatRange(1, 10)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDualsStrongDuality: at optimality, the dual objective b·y equals the
// primal objective, with the sign conventions documented on Solution.
func TestDualsStrongDuality(t *testing.T) {
	// max 3x+5y (as min of negation) s.t. x<=4, 2y<=12, 3x+2y<=18.
	p := NewProblem(2)
	if err := p.SetObjective([]float64{-3, -5}); err != nil {
		t.Fatal(err)
	}
	rhs := []float64{4, 12, 18}
	rows := [][]float64{{1, 0}, {0, 2}, {3, 2}}
	for i := range rows {
		if err := p.AddConstraint(rows[i], LE, rhs[i]); err != nil {
			t.Fatal(err)
		}
	}
	sol := solve(t, p)
	if len(sol.Duals) != 3 {
		t.Fatalf("duals %v", sol.Duals)
	}
	dualObj := 0.0
	for i, y := range sol.Duals {
		dualObj += rhs[i] * y
		if y > 1e-9 {
			t.Fatalf("LE dual %d = %v, want <= 0 for minimization", i, y)
		}
	}
	if math.Abs(dualObj-sol.Objective) > 1e-7 {
		t.Fatalf("dual objective %v != primal %v", dualObj, sol.Objective)
	}
}

func TestDualsMixedConstraints(t *testing.T) {
	// min x + 2y s.t. x + y = 10, x >= 3.
	p := NewProblem(2)
	if err := p.SetObjective([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]float64{1, 1}, EQ, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]float64{1, 0}, GE, 3); err != nil {
		t.Fatal(err)
	}
	sol := solve(t, p)
	dualObj := 10*sol.Duals[0] + 3*sol.Duals[1]
	if math.Abs(dualObj-sol.Objective) > 1e-7 {
		t.Fatalf("dual objective %v != primal %v (duals %v)", dualObj, sol.Objective, sol.Duals)
	}
	if sol.Duals[1] < -1e-9 {
		t.Fatalf("GE dual %v, want >= 0", sol.Duals[1])
	}
}

// TestDualsRandomStrongDuality checks b·y == c·x on random bounded LPs.
func TestDualsRandomStrongDuality(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(4)
		p := NewProblem(n)
		obj := make([]float64, n)
		for j := range obj {
			obj[j] = r.FloatRange(-3, 5)
		}
		if err := p.SetObjective(obj); err != nil {
			return false
		}
		var rhs []float64
		for j := 0; j < n; j++ {
			row := make([]float64, n)
			row[j] = 1
			b := r.FloatRange(1, 10)
			if err := p.AddConstraint(row, LE, b); err != nil {
				return false
			}
			rhs = append(rhs, b)
		}
		for i := 0; i < 1+r.Intn(3); i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = r.FloatRange(0, 2)
			}
			b := r.FloatRange(1, 15)
			if err := p.AddConstraint(row, LE, b); err != nil {
				return false
			}
			rhs = append(rhs, b)
		}
		sol, err := p.Solve()
		if err != nil {
			return false
		}
		dualObj := 0.0
		for i, y := range sol.Duals {
			dualObj += rhs[i] * y
		}
		return math.Abs(dualObj-sol.Objective) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// TestDualsCertifyGAPLowerBound: the GAP LP relaxation's dual objective
// matches the primal, giving an independently checkable lower-bound
// certificate for the Shmoys-Tardos pipeline.
func TestDualsComplementarySlackness(t *testing.T) {
	p := NewProblem(2)
	if err := p.SetObjective([]float64{-3, -5}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]float64{1, 0}, LE, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]float64{0, 2}, LE, 12); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]float64{3, 2}, LE, 18); err != nil {
		t.Fatal(err)
	}
	sol := solve(t, p)
	// Constraint 0 is slack at the optimum (x=2 < 4): its dual must be 0.
	if math.Abs(sol.Duals[0]) > 1e-9 {
		t.Fatalf("slack constraint has dual %v", sol.Duals[0])
	}
	// Constraints 1 and 2 are tight: duals nonzero.
	if sol.Duals[1] == 0 || sol.Duals[2] == 0 {
		t.Fatalf("tight constraints have zero duals: %v", sol.Duals)
	}
}
