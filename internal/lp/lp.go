// Package lp implements a dense two-phase primal simplex solver for linear
// programs in the form
//
//	minimize    c·x
//	subject to  a_i·x (<=|=|>=) b_i   for each constraint i
//	            x >= 0
//
// It is the substrate for the Shmoys-Tardos GAP approximation (Algorithm
// Appro, step 3): the GAP LP relaxation is built as a Problem and solved
// here. The implementation uses Bland's anti-cycling rule with a numeric
// tolerance, which is slower than Dantzig pricing but guaranteed to
// terminate — the right trade-off for a correctness-critical inner solver.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Relation is a constraint sense.
type Relation int

// Constraint senses.
const (
	LE Relation = iota + 1 // a·x <= b
	EQ                     // a·x == b
	GE                     // a·x >= b
)

func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case EQ:
		return "=="
	case GE:
		return ">="
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// Status reports the outcome of Solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota + 1
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Errors returned by Solve for non-optimal outcomes; the Solution still
// carries the Status.
var (
	ErrInfeasible = errors.New("lp: problem is infeasible")
	ErrUnbounded  = errors.New("lp: problem is unbounded")
)

type constraint struct {
	coeffs []float64
	rel    Relation
	rhs    float64
}

// Problem is a linear program under construction. Create with NewProblem,
// populate, then call Solve.
type Problem struct {
	numVars     int
	objective   []float64
	constraints []constraint
}

// NewProblem returns an LP with numVars non-negative decision variables and
// a zero objective.
func NewProblem(numVars int) *Problem {
	return &Problem{
		numVars:   numVars,
		objective: make([]float64, numVars),
	}
}

// NumVars returns the number of decision variables.
func (p *Problem) NumVars() int { return p.numVars }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.constraints) }

// SetObjective sets the minimization objective coefficients. The slice is
// copied. It returns an error on a length mismatch.
func (p *Problem) SetObjective(c []float64) error {
	if len(c) != p.numVars {
		return fmt.Errorf("lp: objective has %d coefficients, problem has %d variables", len(c), p.numVars)
	}
	copy(p.objective, c)
	return nil
}

// SetObjectiveCoeff sets a single objective coefficient.
func (p *Problem) SetObjectiveCoeff(j int, v float64) error {
	if j < 0 || j >= p.numVars {
		return fmt.Errorf("lp: variable index %d out of range [0,%d)", j, p.numVars)
	}
	p.objective[j] = v
	return nil
}

// AddConstraint appends the constraint coeffs·x rel rhs. The coefficient
// slice is copied.
func (p *Problem) AddConstraint(coeffs []float64, rel Relation, rhs float64) error {
	if len(coeffs) != p.numVars {
		return fmt.Errorf("lp: constraint has %d coefficients, problem has %d variables", len(coeffs), p.numVars)
	}
	if rel != LE && rel != EQ && rel != GE {
		return fmt.Errorf("lp: invalid relation %v", rel)
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return fmt.Errorf("lp: invalid rhs %v", rhs)
	}
	c := constraint{coeffs: append([]float64(nil), coeffs...), rel: rel, rhs: rhs}
	p.constraints = append(p.constraints, c)
	return nil
}

// AddSparseConstraint appends a constraint given as (index, value) pairs.
func (p *Problem) AddSparseConstraint(idx []int, val []float64, rel Relation, rhs float64) error {
	if len(idx) != len(val) {
		return fmt.Errorf("lp: sparse constraint has %d indices but %d values", len(idx), len(val))
	}
	coeffs := make([]float64, p.numVars)
	for k, j := range idx {
		if j < 0 || j >= p.numVars {
			return fmt.Errorf("lp: variable index %d out of range [0,%d)", j, p.numVars)
		}
		coeffs[j] += val[k]
	}
	if rel != LE && rel != EQ && rel != GE {
		return fmt.Errorf("lp: invalid relation %v", rel)
	}
	c := constraint{coeffs: coeffs, rel: rel, rhs: rhs}
	p.constraints = append(p.constraints, c)
	return nil
}

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	X         []float64 // values of the decision variables (Optimal only)
	Objective float64   // c·X (Optimal only)
	// Duals holds one dual price per constraint (in AddConstraint order),
	// recovered from the optimal basis. For a minimization LP, the duals
	// certify optimality through strong duality: Objective == Σ_i b_i·y_i
	// with y_i <= 0 for LE rows, y_i >= 0 for GE rows, and free for EQ.
	Duals []float64
}

const eps = 1e-9

// Solve runs the two-phase simplex method. On Infeasible or Unbounded it
// returns the matching sentinel error alongside a Solution carrying the
// status.
func (p *Problem) Solve() (Solution, error) {
	t := newTableau(p)
	// Phase 1: minimize the sum of artificial variables.
	if t.numArtificials > 0 {
		t.setPhase1Objective()
		if err := t.iterate(); err != nil {
			return Solution{Status: Infeasible}, err
		}
		if t.objectiveValue() > 1e-6 {
			return Solution{Status: Infeasible}, ErrInfeasible
		}
		t.driveOutArtificials()
	}
	// Phase 2: the real objective.
	t.setPhase2Objective(p.objective)
	if err := t.iterate(); err != nil {
		if errors.Is(err, ErrUnbounded) {
			return Solution{Status: Unbounded}, err
		}
		return Solution{Status: Infeasible}, err
	}
	x := t.extract(p.numVars)
	obj := 0.0
	for j, cj := range p.objective {
		obj += cj * x[j]
	}
	return Solution{
		Status:    Optimal,
		X:         x,
		Objective: obj,
		Duals:     t.duals(p.objective),
	}, nil
}
