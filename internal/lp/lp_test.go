package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v, want optimal", sol.Status)
	}
	return sol
}

func wantObj(t *testing.T, sol *Solution, v float64) {
	t.Helper()
	if math.Abs(sol.Objective-v) > 1e-6 {
		t.Fatalf("objective %g, want %g (x=%v)", sol.Objective, v, sol.X)
	}
}

func TestTrivialMinimum(t *testing.T) {
	// min x subject to x >= 3.
	p := NewProblem(1)
	p.SetObjectiveCoeff(0, 1)
	p.AddConstraint([]Term{{0, 1}}, GE, 3)
	sol := solveOK(t, p)
	wantObj(t, sol, 3)
}

func TestClassicTwoVar(t *testing.T) {
	// max 3x+5y s.t. x<=4, 2y<=12, 3x+2y<=18 (Dantzig's example) ->
	// min -3x-5y, optimum x=2, y=6, obj -36.
	p := NewProblem(2)
	p.SetObjectiveCoeff(0, -3)
	p.SetObjectiveCoeff(1, -5)
	p.AddConstraint([]Term{{0, 1}}, LE, 4)
	p.AddConstraint([]Term{{1, 2}}, LE, 12)
	p.AddConstraint([]Term{{0, 3}, {1, 2}}, LE, 18)
	sol := solveOK(t, p)
	wantObj(t, sol, -36)
	if math.Abs(sol.X[0]-2) > 1e-6 || math.Abs(sol.X[1]-6) > 1e-6 {
		t.Fatalf("x=%v, want [2 6]", sol.X)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x+y s.t. x+y=5, x<=2 -> obj 5 with x<=2.
	p := NewProblem(2)
	p.SetObjectiveCoeff(0, 1)
	p.SetObjectiveCoeff(1, 1)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, EQ, 5)
	p.SetBounds(0, 0, 2)
	sol := solveOK(t, p)
	wantObj(t, sol, 5)
	if sol.X[0] > 2+1e-6 {
		t.Fatalf("bound violated: %v", sol.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.AddConstraint([]Term{{0, 1}}, LE, 1)
	p.AddConstraint([]Term{{0, 1}}, GE, 2)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}

func TestInfeasibleBounds(t *testing.T) {
	p := NewProblem(1)
	p.SetBounds(0, 3, 2)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(1)
	p.SetObjectiveCoeff(0, -1) // min -x, x unbounded above
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status %v, want unbounded", sol.Status)
	}
}

func TestLowerBoundShift(t *testing.T) {
	// min x+y s.t. x+y >= 10, x >= 4, y in [3, 5].
	p := NewProblem(2)
	p.SetObjectiveCoeff(0, 1)
	p.SetObjectiveCoeff(1, 1)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, GE, 10)
	p.SetBounds(0, 4, math.Inf(1))
	p.SetBounds(1, 3, 5)
	sol := solveOK(t, p)
	wantObj(t, sol, 10)
	if sol.X[0] < 4-1e-9 || sol.X[1] < 3-1e-9 || sol.X[1] > 5+1e-9 {
		t.Fatalf("bounds violated: %v", sol.X)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// x - y <= -2 with min x -> x=0, y>=2.
	p := NewProblem(2)
	p.SetObjectiveCoeff(0, 1)
	p.SetObjectiveCoeff(1, 1)
	p.AddConstraint([]Term{{0, 1}, {1, -1}}, LE, -2)
	sol := solveOK(t, p)
	wantObj(t, sol, 2)
	if math.Abs(sol.X[1]-2) > 1e-6 {
		t.Fatalf("x=%v", sol.X)
	}
}

func TestDegenerateProblem(t *testing.T) {
	// A classic degenerate LP; must terminate and find optimum 0.
	p := NewProblem(3)
	p.SetObjectiveCoeff(0, -0.75)
	p.SetObjectiveCoeff(1, 150)
	p.SetObjectiveCoeff(2, -0.02)
	p.AddConstraint([]Term{{0, 0.25}, {1, -60}, {2, -0.04}}, LE, 0)
	p.AddConstraint([]Term{{0, 0.5}, {1, -90}, {2, -0.02}}, LE, 0)
	p.AddConstraint([]Term{{2, 1}}, LE, 1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v (Beale cycling?)", sol.Status)
	}
	wantObj(t, sol, -0.05)
}

func TestDuplicateTermsSummed(t *testing.T) {
	// (1+1)x >= 4 -> x >= 2.
	p := NewProblem(1)
	p.SetObjectiveCoeff(0, 1)
	p.AddConstraint([]Term{{0, 1}, {0, 1}}, GE, 4)
	sol := solveOK(t, p)
	wantObj(t, sol, 2)
}

func TestBadVariableIndex(t *testing.T) {
	p := NewProblem(1)
	p.AddConstraint([]Term{{5, 1}}, LE, 1)
	if _, err := p.Solve(); err == nil {
		t.Fatal("expected error for out-of-range variable")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	p := NewProblem(2)
	p.SetObjectiveCoeff(0, 1)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, GE, 2)
	q := p.Clone()
	q.SetBounds(0, 1, 1)
	if lo, _ := p.Bounds(0); lo != 0 {
		t.Fatal("clone mutated the original")
	}
	solP := solveOK(t, p)
	solQ := solveOK(t, q)
	wantObj(t, solP, 0)
	wantObj(t, solQ, 1)
}

// TestRandomFeasibilityProperty: for random LPs built from a known
// feasible point, the solver must (a) report optimal or unbounded, and
// (b) when optimal, return a point satisfying every constraint, with an
// objective no worse than the known point's.
func TestRandomFeasibilityProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		// Known feasible point.
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = r.Float64() * 10
		}
		p := NewProblem(n)
		for i := 0; i < n; i++ {
			p.SetObjectiveCoeff(i, r.Float64()*2) // non-negative costs: bounded
		}
		m := 1 + r.Intn(6)
		type row struct {
			terms []Term
			rel   Rel
			rhs   float64
		}
		var rows []row
		for k := 0; k < m; k++ {
			var terms []Term
			lhs := 0.0
			for i := 0; i < n; i++ {
				if r.Intn(2) == 0 {
					c := r.Float64()*4 - 2
					terms = append(terms, Term{i, c})
					lhs += c * x0[i]
				}
			}
			if len(terms) == 0 {
				continue
			}
			rel := Rel(r.Intn(2)) // LE or GE; skip EQ to keep x0 feasible
			slackAmt := r.Float64() * 3
			rhs := lhs + slackAmt
			if rel == GE {
				rhs = lhs - slackAmt
			}
			p.AddConstraint(terms, rel, rhs)
			rows = append(rows, row{terms, rel, rhs})
		}
		sol, err := p.Solve()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if sol.Status != Optimal {
			t.Logf("seed %d: status %v for feasible bounded problem", seed, sol.Status)
			return false
		}
		for _, rw := range rows {
			lhs := 0.0
			for _, tm := range rw.terms {
				lhs += tm.Coeff * sol.X[tm.Var]
			}
			switch rw.rel {
			case LE:
				if lhs > rw.rhs+1e-5 {
					t.Logf("seed %d: LE violated: %g > %g", seed, lhs, rw.rhs)
					return false
				}
			case GE:
				if lhs < rw.rhs-1e-5 {
					t.Logf("seed %d: GE violated: %g < %g", seed, lhs, rw.rhs)
					return false
				}
			}
		}
		// Optimality sanity: no worse than the known feasible point.
		obj0 := 0.0
		for i := range x0 {
			obj0 += p.objective[i] * x0[i]
		}
		if sol.Objective > obj0+1e-5 {
			t.Logf("seed %d: objective %g worse than feasible point %g", seed, sol.Objective, obj0)
			return false
		}
		for i, v := range sol.X {
			if v < -1e-7 {
				t.Logf("seed %d: negative variable %d = %g", seed, i, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMediumScheduleLikeLP(t *testing.T) {
	// A chain of start-time variables with precedence gaps, mimicking the
	// pipeline-order constraints of the partition MIP: t_i >= t_{i-1}+d.
	const n = 120
	p := NewProblem(n)
	p.SetObjectiveCoeff(n-1, 1)
	for i := 1; i < n; i++ {
		p.AddConstraint([]Term{{i, 1}, {i - 1, -1}}, GE, 0.5)
	}
	sol := solveOK(t, p)
	wantObj(t, sol, 0.5*(n-1))
}

func TestLargeChainPerformance(t *testing.T) {
	// A partition-MIP-sized LP must solve in well under a second.
	const n = 300
	p := NewProblem(n)
	p.SetObjectiveCoeff(n-1, 1)
	for i := 1; i < n; i++ {
		p.AddConstraint([]Term{{i, 1}, {i - 1, -1}}, GE, 0.1)
		if i%7 == 0 {
			p.AddConstraint([]Term{{i, 1}}, LE, float64(i))
		}
	}
	sol := solveOK(t, p)
	wantObj(t, sol, 0.1*(n-1))
}

func TestStatusStrings(t *testing.T) {
	for st, want := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", IterLimit: "iteration-limit",
	} {
		if st.String() != want {
			t.Errorf("%d: %q", st, st.String())
		}
	}
	for r, want := range map[Rel]string{LE: "<=", GE: ">=", EQ: "=="} {
		if r.String() != want {
			t.Errorf("rel %q", r.String())
		}
	}
}

func TestEqualityWithNegativeRHS(t *testing.T) {
	// x - y == -3 with min x+y -> x=0, y=3.
	p := NewProblem(2)
	p.SetObjectiveCoeff(0, 1)
	p.SetObjectiveCoeff(1, 1)
	p.AddConstraint([]Term{{0, 1}, {1, -1}}, EQ, -3)
	sol := solveOK(t, p)
	wantObj(t, sol, 3)
}

// randomLP draws a small LP mixing LE, GE and EQ rows, finite and
// infinite upper bounds, and negative costs, with small integer data so
// that brute force can decide it.
func randomLP(r *rand.Rand) *Problem {
	n := 2 + r.Intn(2)
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.SetObjectiveCoeff(j, float64(r.Intn(5)-2))
		lo := float64(r.Intn(2))
		hi := math.Inf(1)
		if r.Intn(2) == 0 {
			hi = lo + float64(1+r.Intn(4))
		}
		p.SetBounds(j, lo, hi)
	}
	for k := 1 + r.Intn(3); k > 0; k-- {
		var terms []Term
		for j := 0; j < n; j++ {
			if c := r.Intn(7) - 3; c != 0 {
				terms = append(terms, Term{j, float64(c)})
			}
		}
		if len(terms) == 0 {
			continue
		}
		p.AddConstraint(terms, Rel(r.Intn(3)), float64(r.Intn(11)-3))
	}
	return p
}

// bruteForce decides p by enumerating the vertices of its feasible set
// with every infinite upper bound replaced by box: each choice of n
// hyperplanes among the rows and finite bounds that meet in one feasible
// point is a vertex. It returns whether a feasible vertex exists and the
// least objective over the vertices.
func bruteForce(p *Problem, box float64) (feasible bool, best float64) {
	n := p.n
	type plane struct {
		a   []float64
		rhs float64
	}
	var planes []plane
	for _, c := range p.constraints {
		a := make([]float64, n)
		for _, t := range c.terms {
			a[t.Var] += t.Coeff
		}
		planes = append(planes, plane{a, c.rhs})
	}
	hi := func(j int) float64 { return math.Min(p.upper[j], p.lower[j]+box) }
	for j := 0; j < n; j++ {
		lo, up := make([]float64, n), make([]float64, n)
		lo[j], up[j] = 1, 1
		planes = append(planes, plane{lo, p.lower[j]}, plane{up, hi(j)})
	}
	ok := func(x []float64) bool {
		for j := 0; j < n; j++ {
			if x[j] < p.lower[j]-1e-9 || x[j] > hi(j)+1e-9 {
				return false
			}
		}
		for i := range p.constraints {
			if !p.Satisfied(i, x) {
				return false
			}
		}
		return true
	}
	best = math.Inf(1)
	pick := make([]int, n)
	var rec func(k, from int)
	rec = func(k, from int) {
		if k == n {
			// Solve the n×n system by Gaussian elimination.
			m := make([][]float64, n)
			for i, pi := range pick {
				m[i] = append(append([]float64(nil), planes[pi].a...), planes[pi].rhs)
			}
			for c := 0; c < n; c++ {
				piv := c
				for i := c + 1; i < n; i++ {
					if math.Abs(m[i][c]) > math.Abs(m[piv][c]) {
						piv = i
					}
				}
				if math.Abs(m[piv][c]) < 1e-9 {
					return
				}
				m[c], m[piv] = m[piv], m[c]
				for i := 0; i < n; i++ {
					if i != c {
						f := m[i][c] / m[c][c]
						for l := c; l <= n; l++ {
							m[i][l] -= f * m[c][l]
						}
					}
				}
			}
			x := make([]float64, n)
			for i := range x {
				x[i] = m[i][n] / m[i][i]
			}
			if ok(x) {
				feasible = true
				best = math.Min(best, dot(p.objective, x))
			}
			return
		}
		for i := from; i < len(planes); i++ {
			pick[k] = i
			rec(k+1, i+1)
		}
	}
	rec(0, 0)
	return feasible, best
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// checkOptimal asserts the solver's optimal basis is primal feasible and
// its reduced costs have the right sign: nonnegative at a lower bound,
// nonpositive at an upper bound, zero on basic columns.
func checkOptimal(t *testing.T, seed int64, s *Solver) {
	t.Helper()
	if !s.accurate() {
		t.Errorf("seed %d: optimal point violates a row or bound", seed)
	}
	for j := 0; j < s.ncol; j++ {
		d := s.d[j]
		switch {
		case s.pos[j] >= 0:
			if math.Abs(d) > 1e-7 {
				t.Errorf("seed %d: basic column %d has reduced cost %g", seed, j, d)
			}
		case s.lo[j] == s.hi[j]:
		case s.state[j] == atLower && d < -1e-7, s.state[j] == atUpper && d > 1e-7:
			t.Errorf("seed %d: column %d at %d has reduced cost %g", seed, j, s.state[j], d)
		case s.state[j] == atBoxLower || s.state[j] == atBoxUpper:
			t.Errorf("seed %d: optimal basis keeps column %d boxed", seed, j)
		}
	}
}

// sameBasis reports whether a and b hold the same basic columns, in any
// row order.
func sameBasis(a, b *Basis) bool {
	x, y := slices.Clone(a.basic), slices.Clone(b.basic)
	slices.Sort(x)
	slices.Sort(y)
	return slices.Equal(x, y)
}

// TestRandomAgainstVertexEnumeration solves random mixed LPs and holds
// every answer to brute force: an optimal basis is primal feasible, has
// reduced costs of the right sign and the least vertex objective;
// infeasible and unbounded verdicts match the vertex sets. After a random
// bound change, a warm re-solve from the current basis and a re-solve
// from a snapshotted basis must reach the cold solve's status and
// objective.
func TestRandomAgainstVertexEnumeration(t *testing.T) {
	counts := map[Status]int{}
	for seed := int64(0); seed < 2000; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := randomLP(r)
		var s Solver
		if err := s.Load(p); err != nil {
			t.Fatal(err)
		}
		st := s.Solve(0)
		counts[st]++
		feasible, best := bruteForce(p, 1e4)
		_, wider := bruteForce(p, 1e5)
		unbounded := feasible && wider < best-1e-6
		switch {
		case st == Infeasible && feasible, st != Infeasible && !feasible:
			t.Errorf("seed %d: status %v, brute force feasible=%v", seed, st, feasible)
		case st == Unbounded && !unbounded, st == Optimal && unbounded:
			t.Errorf("seed %d: status %v, brute force unbounded=%v", seed, st, unbounded)
		case st == Optimal:
			checkOptimal(t, seed, &s)
			if math.Abs(s.Objective()-best) > 1e-6*(1+math.Abs(best)) {
				t.Errorf("seed %d: objective %g, vertex minimum %g", seed, s.Objective(), best)
			}
		}
		if st != Optimal {
			continue
		}
		basis := s.Basis()
		for _, from := range []*Basis{nil, basis} {
			j := r.Intn(p.n)
			lo := float64(r.Intn(3))
			hi := lo + float64(r.Intn(3))
			if r.Intn(3) == 0 {
				hi = math.Inf(1)
			}
			q := p.Clone()
			q.SetBounds(j, lo, hi)
			cold, err := q.Solve()
			if err != nil {
				t.Fatal(err)
			}
			s.SetBounds(j, lo, hi)
			if from != nil {
				s.SetBasis(from)
				if !sameBasis(s.Basis(), from) {
					t.Errorf("seed %d: SetBasis installed %v, want %v", seed, s.Basis().basic, from.basic)
				}
			}
			warm := s.Solve(0)
			if warm != cold.Status {
				t.Errorf("seed %d: warm re-solve %v, cold %v", seed, warm, cold.Status)
				break
			}
			if warm == Optimal {
				checkOptimal(t, seed, &s)
				if math.Abs(s.Objective()-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
					t.Errorf("seed %d: warm objective %g, cold %g", seed, s.Objective(), cold.Objective)
				}
			}
			p = q
		}
	}
	t.Logf("verdicts: %v", counts)
	// The generator must exercise every verdict.
	for _, st := range []Status{Optimal, Infeasible, Unbounded} {
		if counts[st] == 0 {
			t.Errorf("no %v problems among the random LPs: %v", st, counts)
		}
	}
}

// TestRefactorKeepsOptimum rebuilds the tableau from A under an optimal
// basis: the re-solve must install that basis and stop there, with the
// same objective and no dual pivot.
func TestRefactorKeepsOptimum(t *testing.T) {
	const n = 60
	p := NewProblem(n)
	p.SetObjectiveCoeff(n-1, 1)
	for i := 1; i < n; i++ {
		p.AddConstraint([]Term{{i, 1}, {i - 1, -1}}, GE, 0.5)
		if i%5 == 0 {
			p.AddConstraint([]Term{{i, 1}, {i - 5, -1}}, LE, 4)
		}
	}
	var s Solver
	if err := s.Load(p); err != nil {
		t.Fatal(err)
	}
	if st := s.Solve(0); st != Optimal {
		t.Fatalf("status %v", st)
	}
	obj, basis := s.Objective(), s.Basis()
	s.refactor()
	if !sameBasis(s.Basis(), basis) {
		t.Fatalf("refactor installed %v, want %v", s.Basis().basic, basis.basic)
	}
	before := s.Pivots()
	if st := s.Solve(0); st != Optimal {
		t.Fatalf("status after refactor %v", st)
	}
	if s.Pivots() != before || math.Abs(s.Objective()-obj) > 1e-9 {
		t.Fatalf("re-solve after refactor took %d pivots to objective %g, want 0 pivots to %g", s.Pivots()-before, s.Objective(), obj)
	}
}
