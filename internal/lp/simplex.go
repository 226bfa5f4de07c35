package lp

import (
	"fmt"
	"math"
)

// Placement of a nonbasic column. A column whose reduced cost pulls it
// toward an infinite bound is boxed: it sits box away from its finite
// bound until the optimum shows whether the box binds.
const (
	atLower    uint8 = iota // x = lo
	atUpper                 // x = hi
	atBoxUpper              // x = lo + box (hi is +∞)
	atBoxLower              // x = hi − box (lo is −∞)
)

const (
	primalTol = 1e-7 // basic-value feasibility, scaled by 1+|bound|
	dualTol   = 1e-9 // reduced-cost sign
	pivotTol  = 1e-9 // smallest usable ratio-test pivot
	// installTol is the smallest pivot a basis install accepts before it
	// refactors from the slack basis instead.
	installTol = 1e-7
	boxStart   = 1e6
	boxMax     = 1e12
	// checkTol bounds the constraint residual of an optimal point; a
	// larger one triggers a refactorization and re-solve.
	checkTol = 1e-6
)

// Solver is a bounded-variable dual simplex over one loaded Problem. Its
// working memory is reused by every Load, so a Solver may serve any
// number of sequential problems, but it must not be shared by concurrent
// solves: pool one per worker goroutine.
//
// Columns are the n structurals followed by one slack per row, m rows
// in all, so n columns are nonbasic at any time. The tableau keeps only
// those: row r holds B⁻¹a_j for the nonbasic column j in each of the n
// slots, then B⁻¹b. Basic columns are unit vectors and are not stored.
// The squared norm of row r of B⁻¹ — the nonbasic slack slots of row r,
// plus one when row r's basic column is a slack — is the row's dual
// steepest-edge weight.
type Solver struct {
	p          *Problem
	n, m, ncol int

	t      []float64 // m × (n+1), row-major
	d      []float64 // reduced costs, ncol
	lo, hi []float64 // working bounds, ncol
	state  []uint8   // nonbasic placement, ncol
	head   []int     // basic column of each row
	pos    []int     // row of each basic column, -1 when nonbasic
	slot   []int     // tableau slot of each nonbasic column, -1 when basic
	col    []int     // column in each slot
	xB     []float64 // basic values
	wt     []float64 // dual steepest-edge weights
	box    float64

	pivots int
	// fresh counts the pivots since the tableau was last rebuilt from A.
	fresh int

	mask   []float64 // scratch: pivot row over the slack slots
	cand   []int     // scratch: ratio-test candidate slots
	target []bool    // scratch: SetBasis membership
}

// Basis is a snapshot of a simplex basis: the basic columns and the
// nonbasic columns that sit at their upper bound. It holds no tableau,
// only a few bytes per row, so branch-and-bound nodes can keep one each.
type Basis struct {
	basic []int32
	upper []int32
}

// Load makes p the solver's problem with the slack basis installed and
// p's bounds as the working bounds. The solver reads p's rows and costs
// during later calls, so p must not change until the next Load.
func (s *Solver) Load(p *Problem) error {
	if p.buildErr != nil {
		return p.buildErr
	}
	for _, c := range p.constraints {
		for _, t := range c.terms {
			if t.Var < 0 || t.Var >= p.n {
				return fmt.Errorf("%w: term references variable %d of %d", ErrBadProblem, t.Var, p.n)
			}
		}
	}
	s.p = p
	s.n, s.m = p.n, len(p.constraints)
	s.ncol = s.n + s.m
	s.lo = grow(s.lo, s.ncol)
	s.hi = grow(s.hi, s.ncol)
	s.state = grow(s.state, s.ncol)
	s.pos = grow(s.pos, s.ncol)
	s.slot = grow(s.slot, s.ncol)
	s.col = grow(s.col, s.n)
	s.head = grow(s.head, s.m)
	s.xB = grow(s.xB, s.m)
	s.mask = grow(s.mask, s.n+1)
	s.target = grow(s.target, s.ncol)
	copy(s.lo, p.lower)
	copy(s.hi, p.upper)
	for r, c := range p.constraints {
		j := s.n + r
		switch c.rel {
		case LE:
			s.lo[j], s.hi[j] = 0, math.Inf(1)
		case GE:
			s.lo[j], s.hi[j] = math.Inf(-1), 0
		case EQ:
			s.lo[j], s.hi[j] = 0, 0
		}
	}
	s.box = boxStart
	s.pivots = 0
	s.rebuild()
	return nil
}

// rebuild resets the tableau to [A | b] with the slack basis: reduced
// costs equal the costs and every steepest-edge weight is 1.
func (s *Solver) rebuild() {
	w := s.n + 1
	s.t = grow(s.t, s.m*w)
	s.d = grow(s.d, s.ncol)
	s.wt = grow(s.wt, s.m)
	copy(s.d, s.p.objective)
	for j := 0; j < s.n; j++ {
		s.pos[j], s.slot[j], s.col[j] = -1, j, j
	}
	for r, c := range s.p.constraints {
		row := s.t[r*w : (r+1)*w]
		for _, t := range c.terms {
			row[t.Var] += t.Coeff
		}
		row[s.n] = c.rhs
		s.head[r] = s.n + r
		s.pos[s.n+r], s.slot[s.n+r] = r, -1
		s.wt[r] = 1
	}
	s.fresh = 0
}

// SetBounds overrides the working bounds of structural column j until the
// next Load. The basis is kept: the next Solve re-optimizes from it.
func (s *Solver) SetBounds(j int, lo, hi float64) { s.lo[j], s.hi[j] = lo, hi }

// Bounds returns the working bounds of structural column j.
func (s *Solver) Bounds(j int) (lo, hi float64) { return s.lo[j], s.hi[j] }

// Pivots returns the number of tableau pivots since Load, counting basis
// installs and refactorizations.
func (s *Solver) Pivots() int { return s.pivots }

// X returns the structural values of the current basis.
func (s *Solver) X() []float64 {
	x := make([]float64, s.n)
	for j := range x {
		x[j] = s.value(j)
	}
	return x
}

// Objective returns c·x at the current basis.
func (s *Solver) Objective() float64 {
	var v float64
	for j, c := range s.p.objective {
		if c != 0 {
			v += c * s.value(j)
		}
	}
	return v
}

// value returns column j's current value.
func (s *Solver) value(j int) float64 {
	if r := s.pos[j]; r >= 0 {
		return s.xB[r]
	}
	return s.nonbasicValue(j)
}

func (s *Solver) nonbasicValue(j int) float64 {
	switch s.state[j] {
	case atUpper:
		return s.hi[j]
	case atBoxUpper:
		return s.lo[j] + s.box
	case atBoxLower:
		return s.hi[j] - s.box
	}
	return s.lo[j]
}

// Basis snapshots the current basis.
func (s *Solver) Basis() *Basis {
	b := &Basis{basic: make([]int32, s.m)}
	for r, j := range s.head {
		b.basic[r] = int32(j)
	}
	for _, j := range s.col {
		if s.state[j] == atUpper {
			b.upper = append(b.upper, int32(j))
		}
	}
	return b
}

// SetBasis installs b, a basis snapshotted from this problem under any
// working bounds. Columns of b that are not basic are pivoted in over
// rows whose basic column b does not hold, largest pivot first; a
// near-singular pivot falls back to rebuilding the tableau from A and
// installing b there. Nonbasic columns take b's bound placement; Solve
// repairs any placement the current reduced costs disagree with.
func (s *Solver) SetBasis(b *Basis) {
	for _, j := range b.basic {
		s.target[j] = true
	}
	if !s.install(b) {
		s.rebuild()
		s.install(b)
	}
	for _, j := range b.basic {
		s.target[j] = false
	}
	for _, j := range s.col {
		s.state[j] = atLower
	}
	for _, j := range b.upper {
		s.state[j] = atUpper
	}
}

// refactor rebuilds the tableau from A and reinstalls the current basis,
// shedding the rounding that a long chain of pivots accumulates.
func (s *Solver) refactor() {
	b := s.Basis()
	s.rebuild()
	s.SetBasis(b)
}

// install pivots the target columns in; it reports false when it meets
// a near-singular pivot.
func (s *Solver) install(b *Basis) bool {
	w := s.n + 1
	for _, bj := range b.basic {
		j := int(bj)
		k := s.slot[j]
		if k < 0 {
			continue
		}
		r, best := -1, installTol
		for i := 0; i < s.m; i++ {
			if s.target[s.head[i]] {
				continue
			}
			if a := math.Abs(s.t[i*w+k]); a > best {
				r, best = i, a
			}
		}
		if r < 0 {
			return false
		}
		s.pivot(r, j, 0)
	}
	return true
}

// Solve re-optimizes from the current basis under the working bounds
// with at most limit pivots (limit <= 0: a cap proportional to the
// problem size). It returns Optimal, Infeasible, Unbounded, or IterLimit
// when the cap is reached.
func (s *Solver) Solve(limit int) Status {
	for j := 0; j < s.n; j++ {
		if s.lo[j] > s.hi[j] {
			return Infeasible
		}
	}
	if limit <= 0 {
		limit = 50*s.ncol + 1000
	}
	budget := s.pivots + limit
	refactored := false
	if s.fresh > 20*s.m+1000 {
		// Long pivot chains accumulate rounding; start from A again.
		s.refactor()
		refactored = true
	}
	// Each round ends optimal or widens the box (twice at most), moves
	// zero-cost columns off it, or refactors once; the round cap only
	// guards against those steps undoing one another.
	for round := 0; ; round++ {
		if round > 64 {
			return IterLimit
		}
		s.place()
		s.computeXB()
		switch s.dual(budget) {
		case IterLimit:
			return IterLimit
		case Infeasible:
			// A boxed column may hide a feasible point beyond its box.
			if !s.boxed() || s.box >= boxMax {
				return Infeasible
			}
			s.box *= 1e3
			continue
		}
		widen, moved := s.unbox()
		if widen {
			if s.box >= boxMax {
				return Unbounded
			}
			s.box *= 1e3
			continue
		}
		if moved {
			continue
		}
		if !refactored && !s.accurate() {
			s.refactor()
			refactored = true
			continue
		}
		return Optimal
	}
}

// place puts every nonbasic column at the bound its reduced cost makes
// dual feasible, keeping the current side when the cost is zero.
func (s *Solver) place() {
	for _, j := range s.col {
		lo, hi, dj := s.lo[j], s.hi[j], s.d[j]
		st := s.state[j]
		switch {
		case lo == hi:
			st = atLower
		case dj > dualTol:
			st = atLower
			if math.IsInf(lo, -1) {
				st = atBoxLower
			}
		case dj < -dualTol:
			st = atUpper
			if math.IsInf(hi, 1) {
				st = atBoxUpper
			}
		case st == atUpper && math.IsInf(hi, 1), st == atBoxUpper:
			st = atLower
		case st == atLower && math.IsInf(lo, -1), st == atBoxLower:
			st = atUpper
		}
		s.state[j] = st
	}
}

// computeXB sets the basic values to B⁻¹b − B⁻¹N·x_N.
func (s *Solver) computeXB() {
	w := s.n + 1
	for r := 0; r < s.m; r++ {
		s.xB[r] = s.t[r*w+s.n]
	}
	for k, j := range s.col {
		v := s.nonbasicValue(j)
		if v == 0 {
			continue
		}
		for r := 0; r < s.m; r++ {
			if a := s.t[r*w+k]; a != 0 {
				s.xB[r] -= a * v
			}
		}
	}
}

// boxed reports whether any nonbasic column sits at an artificial box.
func (s *Solver) boxed() bool {
	for _, j := range s.col {
		if s.state[j] == atBoxUpper || s.state[j] == atBoxLower {
			return true
		}
	}
	return false
}

// unbox inspects the boxed columns of a box-optimal basis. One with a
// zero reduced cost moves to its finite bound (moved); one the objective
// still pushes against its box means the box binds (widen).
func (s *Solver) unbox() (widen, moved bool) {
	for _, j := range s.col {
		switch st := s.state[j]; {
		case st != atBoxUpper && st != atBoxLower:
		case math.Abs(s.d[j]) > dualTol:
			widen = true
		case st == atBoxUpper:
			moved = true
			s.state[j] = atLower
		default:
			moved = true
			s.state[j] = atUpper
		}
	}
	return widen, moved
}

// accurate checks the current point against the original rows and
// bounds.
func (s *Solver) accurate() bool {
	for j := 0; j < s.n; j++ {
		v := s.value(j)
		if v < s.lo[j]-checkTol*(1+math.Abs(s.lo[j])) || v > s.hi[j]+checkTol*(1+math.Abs(s.hi[j])) {
			return false
		}
	}
	for _, c := range s.p.constraints {
		var lhs float64
		for _, t := range c.terms {
			lhs += t.Coeff * s.value(t.Var)
		}
		tol := checkTol * (1 + math.Abs(c.rhs))
		if (c.rel != GE && lhs > c.rhs+tol) || (c.rel != LE && lhs < c.rhs-tol) {
			return false
		}
	}
	return true
}

// dual runs dual simplex pivots until the basic values are feasible
// (Optimal), a row proves the box problem infeasible, or the pivot count
// reaches budget.
func (s *Solver) dual(budget int) Status {
	for {
		// Dual steepest-edge pricing: the most infeasible row relative to
		// the norm of its B⁻¹ row.
		r, best := -1, 0.0
		leaveUpper := false
		for i, p := range s.head {
			v := s.xB[i]
			var inf float64
			up := false
			if lo := s.lo[p]; v < lo-primalTol*(1+math.Abs(lo)) {
				inf = lo - v
			} else if hi := s.hi[p]; v > hi+primalTol*(1+math.Abs(hi)) {
				inf, up = v-hi, true
			} else {
				continue
			}
			if score := inf * inf / s.wt[i]; score > best {
				r, best, leaveUpper = i, score, up
			}
		}
		if r < 0 {
			return Optimal
		}
		if s.pivots >= budget {
			return IterLimit
		}
		q := s.ratio(r, leaveUpper)
		if q < 0 {
			return Infeasible
		}
		p := s.head[r]
		bound := s.lo[p]
		if leaveUpper {
			bound = s.hi[p]
		}
		step := (s.xB[r] - bound) / s.t[r*(s.n+1)+s.slot[q]]
		enter := s.nonbasicValue(q) + step
		s.pivot(r, q, step)
		s.xB[r] = enter
		s.state[p] = atLower
		if leaveUpper {
			s.state[p] = atUpper
		}
	}
}

// ratio is the Harris two-pass dual ratio test on row r, whose basic
// column leaves toward its upper bound when leaveUpper. Pass one bounds
// the dual step with every reduced cost relaxed by dualTol; pass two
// takes the largest pivot within that bound. It returns the entering
// column, or -1 when none can enter.
func (s *Solver) ratio(r int, leaveUpper bool) int {
	row := s.t[r*(s.n+1) : r*(s.n+1)+s.n]
	// x_head = b̄ − Σ α_j x_j: leaving upward needs Σ α_j x_j to grow.
	sign := 1.0
	if !leaveUpper {
		sign = -1
	}
	cand := s.cand[:0]
	limit := math.Inf(1)
	for k, a := range row {
		j := s.col[k]
		if a == 0 || s.lo[j] == s.hi[j] {
			continue
		}
		a *= sign
		slack := s.d[j] // reduced cost in the direction the column moves
		switch s.state[j] {
		case atLower, atBoxLower: // can increase
			if a <= pivotTol {
				continue
			}
		default: // can decrease
			if a >= -pivotTol {
				continue
			}
			slack, a = -slack, -a
		}
		if t := (math.Max(slack, 0) + dualTol) / a; t < limit {
			limit = t
		}
		cand = append(cand, k)
	}
	s.cand = cand
	q, big := -1, 0.0
	for _, k := range cand {
		j := s.col[k]
		a := math.Abs(row[k])
		slack := s.d[j]
		if s.state[j] == atUpper || s.state[j] == atBoxUpper {
			slack = -slack
		}
		if math.Max(slack, 0)/a <= limit && a > big {
			q, big = j, a
		}
	}
	return q
}

// pivot makes nonbasic column q basic in row r, whose basic column takes
// q's slot. It updates the tableau, the reduced costs, the steepest-edge
// weights, and the basic values of the other rows for an entering step
// of step; the caller sets row r's basic value. Only rows with a nonzero
// in q's slot are touched.
func (s *Solver) pivot(r, q int, step float64) {
	n, w := s.n, s.n+1
	k := s.slot[q]
	p := s.head[r]
	prow := s.t[r*w : (r+1)*w]
	inv := 1 / prow[k]
	// Scale row r, and mask it to the slack slots: the mask is row r of
	// the old B⁻¹ over the nonbasic slacks, scaled by 1/α, whose squared
	// norm (plus row r's own basic slack) gives row r's new weight.
	mask := s.mask[:w]
	var wr float64
	for l, v := range prow {
		v *= inv
		prow[l] = v
		if l < n && s.col[l] >= n {
			mask[l] = v
			wr += v * v
		} else {
			mask[l] = 0
		}
	}
	if p >= n {
		wr += inv * inv
	}
	// Slot k now holds the leaving column p: its entries are −α_iq/α, and
	// 1/α in row r. Its mask entry moves to maskK so the row loop below,
	// which clears slot k first, can still count it.
	maskK := mask[k]
	mask[k] = 0
	prow[k] = inv

	if dq := s.d[q]; dq != 0 {
		for l, v := range prow[:n] {
			if v != 0 {
				s.d[s.col[l]] -= dq * v
			}
		}
		s.d[p] = -dq * inv
		s.d[q] = 0
	}

	for i := 0; i < s.m; i++ {
		if i == r {
			continue
		}
		row := s.t[i*w : (i+1)*w]
		f := row[k]
		if f == 0 {
			continue
		}
		row[k] = 0
		dot := f*maskK + axpyDot(row, prow, mask, f)
		if wi := s.wt[i] - 2*f*dot + f*f*wr; wi > 1e-12 {
			s.wt[i] = wi
		} else {
			s.wt[i] = 1e-12
		}
		s.xB[i] -= f * step
	}
	s.wt[r] = wr

	s.col[k] = p
	s.slot[p], s.slot[q] = k, -1
	s.pos[p], s.pos[q] = -1, r
	s.head[r] = q
	s.pivots++
	s.fresh++
}

// axpyDot sets row -= f·prow and returns the dot product of row's old
// values with mask. Four partial sums keep the loop from waiting on one
// accumulator.
func axpyDot(row, prow, mask []float64, f float64) float64 {
	n := len(prow)
	row, mask = row[:n], mask[:n]
	var d0, d1, d2, d3 float64
	l := 0
	for ; l+4 <= n; l += 4 {
		o0, o1, o2, o3 := row[l], row[l+1], row[l+2], row[l+3]
		d0 += o0 * mask[l]
		d1 += o1 * mask[l+1]
		d2 += o2 * mask[l+2]
		d3 += o3 * mask[l+3]
		row[l] = o0 - f*prow[l]
		row[l+1] = o1 - f*prow[l+1]
		row[l+2] = o2 - f*prow[l+2]
		row[l+3] = o3 - f*prow[l+3]
	}
	for ; l < n; l++ {
		d0 += row[l] * mask[l]
		row[l] -= f * prow[l]
	}
	return (d0 + d1) + (d2 + d3)
}

// grow returns a zeroed slice of length n, reusing s's backing array
// when its capacity allows.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
