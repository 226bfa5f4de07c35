// Package lp implements a bounded-variable dual simplex solver for
// linear programs in the form
//
//	minimize    c·x
//	subject to  A·x {<=,=,>=} b
//	            lo <= x <= hi   (lo >= 0)
//
// It is the linear-programming core underneath internal/milp, which
// together replace the Gurobi Optimizer the paper uses to solve the MIP
// partition problem (§3.2).
//
// Every row gets one slack column (LE in [0,∞), GE in (−∞,0], EQ fixed
// at 0), so the slack basis is a starting basis for any problem. Bounds
// stay implicit: a nonbasic column sits at its lower or upper bound, and
// there are no artificial columns, bound rows or phase 1. The solver
// keeps a dense tableau over the nonbasic columns only (basic columns are
// unit vectors and are not stored); a pivot touches only the rows with a
// nonzero in the entering column. Rows are priced by dual steepest edge
// and entering columns picked by a Harris two-pass ratio test. Because
// reduced costs depend only on the basis, an optimal basis stays dual
// feasible when bounds change, which is what branch and bound does: a
// Solver re-optimizes a child from its parent's Basis with a few dual
// pivots. A start that is not dual feasible (a negative cost on a column
// with no upper bound) boxes that column at an artificial bound, widened
// until the optimum leaves it or the problem shows itself unbounded.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // <=
	GE            // >=
	EQ            // ==
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return "?"
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Term is one coefficient of a sparse constraint row.
type Term struct {
	Var   int
	Coeff float64
}

type constraint struct {
	terms []Term
	rel   Rel
	rhs   float64
}

// Problem is a linear program under construction. All variables are
// non-negative by default with infinite upper bound.
type Problem struct {
	n           int
	objective   []float64
	constraints []constraint
	lower       []float64
	upper       []float64

	// buildErr records the first invalid builder call (e.g. a negative
	// lower bound); Solve returns it instead of panicking mid-build.
	buildErr error
}

// NewProblem creates a problem with n non-negative variables.
func NewProblem(n int) *Problem {
	p := &Problem{
		n:         n,
		objective: make([]float64, n),
		lower:     make([]float64, n),
		upper:     make([]float64, n),
	}
	for i := range p.upper {
		p.upper[i] = math.Inf(1)
	}
	return p
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return p.n }

// SetObjectiveCoeff sets the cost of variable i (minimization).
func (p *Problem) SetObjectiveCoeff(i int, c float64) { p.objective[i] = c }

// AddConstraint appends Σ terms rel rhs. Terms with duplicate variables
// are summed.
func (p *Problem) AddConstraint(terms []Term, rel Rel, rhs float64) {
	own := make([]Term, len(terms))
	copy(own, terms)
	p.constraints = append(p.constraints, constraint{terms: own, rel: rel, rhs: rhs})
}

// SetBounds sets lo <= x_i <= hi. lo must be >= 0; a negative lower bound
// is recorded as a build error that Solve returns.
func (p *Problem) SetBounds(i int, lo, hi float64) {
	if lo < 0 {
		if p.buildErr == nil {
			p.buildErr = fmt.Errorf("%w: negative lower bound %g on variable %d", ErrBadProblem, lo, i)
		}
		return
	}
	p.lower[i] = lo
	p.upper[i] = hi
}

// Bounds returns the bounds of variable i.
func (p *Problem) Bounds(i int) (lo, hi float64) { return p.lower[i], p.upper[i] }

// NumConstraints returns the number of explicit constraints.
func (p *Problem) NumConstraints() int { return len(p.constraints) }

// Constraint returns constraint i as added (duplicate terms unsummed).
// The terms are shared with the problem and must not be modified.
func (p *Problem) Constraint(i int) (terms []Term, rel Rel, rhs float64) {
	c := p.constraints[i]
	return c.terms, c.rel, c.rhs
}

// Satisfied reports whether x meets constraint i to within a relative
// 1e-9 of its right-hand side.
func (p *Problem) Satisfied(i int, x []float64) bool {
	c := p.constraints[i]
	var lhs float64
	for _, t := range c.terms {
		lhs += t.Coeff * x[t.Var]
	}
	tol := 1e-9 * (1 + math.Abs(c.rhs))
	return (c.rel == GE || lhs <= c.rhs+tol) && (c.rel == LE || lhs >= c.rhs-tol)
}

// Clone returns an independent copy of the problem (constraint rows are
// shared: they are immutable after AddConstraint).
func (p *Problem) Clone() *Problem {
	q := &Problem{
		n:           p.n,
		objective:   append([]float64(nil), p.objective...),
		constraints: append([]constraint(nil), p.constraints...),
		lower:       append([]float64(nil), p.lower...),
		upper:       append([]float64(nil), p.upper...),
		buildErr:    p.buildErr,
	}
	return q
}

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
}

// ErrBadProblem reports a structurally invalid problem.
var ErrBadProblem = errors.New("lp: invalid problem")

// Solve runs the dual simplex from the slack basis and returns a
// solution. The Status field distinguishes optimal, infeasible and
// unbounded outcomes; Solve returns a non-nil error only for
// structurally invalid input.
func (p *Problem) Solve() (*Solution, error) {
	var s Solver
	if err := s.Load(p); err != nil {
		return nil, err
	}
	sol := &Solution{Status: s.Solve(0)}
	if sol.Status == Optimal {
		sol.X = s.X()
		sol.Objective = s.Objective()
	}
	return sol, nil
}
