// Package milp solves mixed-integer linear programs by best-first branch
// and bound over the internal/lp simplex solver. Together they stand in
// for the Gurobi Optimizer used by the paper to solve the MIP partition
// problem (§3.2): instances there are small after layer-similarity
// compression, so a straightforward exact search suffices.
package milp

import (
	"container/heap"
	"encoding/binary"
	"math"
	"slices"

	"mobius/internal/lp"
)

// Options bound the search effort. Every bound counts work, not time, so
// a solve's result does not depend on machine speed.
type Options struct {
	// MaxNodes caps the number of branch-and-bound nodes (default 5000).
	MaxNodes int
	// MaxPivots caps the simplex pivots of the whole search, basis
	// installs included (default 200,000).
	MaxPivots int
	// IntTol is the integrality tolerance (default 1e-6).
	IntTol float64
	// Incumbent seeds the upper bound with a known feasible objective so
	// the search can prune immediately. The zero value of Options means
	// "no incumbent"; to seed a legitimate zero-valued bound, set
	// IncumbentSet (an unset incumbent can also be spelled NaN).
	Incumbent float64
	// IncumbentSet marks Incumbent as meaningful even when it is zero.
	// Any nonzero finite Incumbent is treated as set for compatibility.
	IncumbentSet bool
	// GapTol is the relative optimality gap: nodes whose LP bound is
	// within GapTol of the incumbent are pruned. Zero means exact.
	GapTol float64
	// Cancel, when non-nil, is polled between branch-and-bound nodes;
	// returning true abandons the search early (the result is then
	// best-effort, as if a node limit had been hit). It lets a caller
	// running several solves concurrently stop work whose outcome it
	// already knows it will discard.
	Cancel func() bool
	// Scratch, when non-nil, supplies the pooled simplex solver. One
	// scratch serves one worker goroutine across any number of Solve
	// calls; concurrent sharing is not safe.
	Scratch *Scratch
}

// Scratch pools the branch-and-bound working memory: one simplex solver
// whose tableau every node of every search re-optimizes in place. Reuse
// across sequential Solve calls is safe; concurrent sharing is not.
type Scratch struct {
	lp lp.Solver
}

// NewScratch returns an empty scratch that grows to the largest problem
// it solves.
func NewScratch() *Scratch { return &Scratch{} }

func (o Options) withDefaults() Options {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 5000
	}
	if o.MaxPivots <= 0 {
		o.MaxPivots = 200_000
	}
	if o.IntTol <= 0 {
		o.IntTol = 1e-6
	}
	if math.IsNaN(o.Incumbent) || (o.Incumbent == 0 && !o.IncumbentSet) {
		o.Incumbent = math.Inf(1)
	}
	return o
}

// Result is the outcome of a MILP solve.
type Result struct {
	// Status is Optimal when an integer solution was found (Proven tells
	// whether optimality was certified), Infeasible when no integer point
	// exists, IterLimit when limits were hit with no incumbent.
	Status    lp.Status
	X         []float64
	Objective float64
	// Nodes is the number of explored branch-and-bound nodes.
	Nodes int
	// Pivots is the number of simplex pivots the search took.
	Pivots int
	// Proven is true when the search space was exhausted, certifying
	// optimality of X.
	Proven bool
}

// fix is one branching bound on an integer variable. A node's fixes are
// the chain from its own fix up to the root's (nil).
type fix struct {
	v      int
	lo, hi float64
	up     *fix
}

type node struct {
	bound  float64   // LP relaxation objective (lower bound)
	fixes  *fix      // branching bounds leading to this node
	basis  *lp.Basis // optimal basis of the node's relaxation
	branch int       // variable chosen for branching
	frac   float64   // fractional value of branch variable
}

type nodeHeap []*node

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i].bound < h[j].bound }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// Solve minimizes p subject to the variables in intVars taking integer
// values. The root relaxation is solved from the slack basis; each child
// and each rounding probe re-optimizes with dual simplex from the basis
// of the node it came from, on the scratch's one tableau.
func Solve(p *lp.Problem, intVars []int, opts Options) (*Result, error) {
	opts = opts.withDefaults()

	res := &Result{Status: lp.IterLimit, Objective: opts.Incumbent}
	var bestX []float64

	sc := opts.Scratch
	if sc == nil {
		sc = NewScratch()
	}
	s := &sc.lp
	if err := s.Load(p); err != nil {
		return nil, err
	}
	rootLo := make([]float64, len(intVars))
	rootHi := make([]float64, len(intVars))
	for k, v := range intVars {
		rootLo[k], rootHi[k] = p.Bounds(v)
	}

	// exhausted turns false when a budget cuts the search short.
	exhausted := true
	// relax re-optimizes under the root bounds narrowed by fixes, from
	// basis when non-nil and from the tableau's current basis otherwise.
	relax := func(fixes *fix, basis *lp.Basis) lp.Status {
		for k, v := range intVars {
			s.SetBounds(v, rootLo[k], rootHi[k])
		}
		for f := fixes; f != nil; f = f.up {
			lo, hi := s.Bounds(f.v)
			s.SetBounds(f.v, math.Max(lo, f.lo), math.Min(hi, f.hi))
		}
		return solveLP(s, basis, res, opts, &exhausted)
	}

	// fractional returns the integer variable furthest from integrality.
	fractional := func(x []float64) (int, float64) {
		best, bestDist := -1, opts.IntTol
		var bestVal float64
		for _, v := range intVars {
			f := x[v] - math.Floor(x[v])
			dist := math.Min(f, 1-f)
			if dist > bestDist {
				best, bestDist, bestVal = v, dist, x[v]
			}
		}
		return best, bestVal
	}

	// Rows over integer variables alone decide a rounding's feasibility
	// before any pivot, and a rounding already probed cannot improve the
	// incumbent again: neither costs a re-solve.
	var intRows []int
	isInt := make([]bool, p.NumVars())
	for _, v := range intVars {
		isInt[v] = true
	}
	for i := 0; i < p.NumConstraints(); i++ {
		terms, _, _ := p.Constraint(i)
		if !slices.ContainsFunc(terms, func(t lp.Term) bool { return !isInt[t.Var] }) {
			intRows = append(intRows, i)
		}
	}
	probed := map[string]bool{}
	rounded := make([]float64, p.NumVars())
	var key []byte

	// tryRound fixes every integer variable at the rounding of x within
	// the current node's bounds and re-solves from the node's basis,
	// which the tableau still holds; a feasible result becomes an
	// incumbent.
	tryRound := func(x []float64) {
		key = key[:0]
		for _, v := range intVars {
			r := math.Round(x[v])
			if lo, hi := s.Bounds(v); r < lo-opts.IntTol || r > hi+opts.IntTol {
				return
			}
			rounded[v] = r
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(r))
		}
		for _, i := range intRows {
			if !p.Satisfied(i, rounded) {
				return
			}
		}
		if probed[string(key)] {
			return
		}
		probed[string(key)] = true
		for _, v := range intVars {
			s.SetBounds(v, rounded[v], rounded[v])
		}
		if solveLP(s, nil, res, opts, &exhausted) != lp.Optimal {
			return
		}
		if obj := s.Objective(); obj < res.Objective-1e-9 {
			res.Objective = obj
			bestX = s.X()
			res.Status = lp.Optimal
		}
	}

	open := &nodeHeap{}
	// expand records the optimal relaxation the tableau holds for the
	// node with the given fixes: an integral one is a direct incumbent,
	// a fractional one is probed by rounding and queued for branching.
	expand := func(fixes *fix) {
		bound := s.Objective()
		x := s.X()
		v, val := fractional(x)
		if v < 0 {
			if bound < res.Objective-1e-9 {
				res.Objective = bound
				bestX = x
				res.Status = lp.Optimal
			}
			return
		}
		basis := s.Basis()
		tryRound(x)
		heap.Push(open, &node{bound: bound, fixes: fixes, basis: basis, branch: v, frac: val})
	}

	switch relax(nil, nil) {
	case lp.Optimal:
		expand(nil)
	case lp.Infeasible:
		return &Result{Status: lp.Infeasible, Pivots: res.Pivots, Proven: true}, nil
	case lp.Unbounded:
		return &Result{Status: lp.Unbounded, Pivots: res.Pivots}, nil
	}

	for open.Len() > 0 {
		if res.Nodes >= opts.MaxNodes || res.Pivots >= opts.MaxPivots || (opts.Cancel != nil && opts.Cancel()) {
			exhausted = false
			break
		}
		nd := heap.Pop(open).(*node)
		cutoff := res.Objective - 1e-9
		if opts.GapTol > 0 && !math.IsInf(res.Objective, 1) {
			cutoff = res.Objective - opts.GapTol*math.Abs(res.Objective)
		}
		if nd.bound >= cutoff {
			continue // pruned by incumbent (within gap tolerance)
		}
		res.Nodes++

		children := [2]*fix{
			{v: nd.branch, lo: math.Inf(-1), hi: math.Floor(nd.frac), up: nd.fixes},
			{v: nd.branch, lo: math.Ceil(nd.frac), hi: math.Inf(1), up: nd.fixes},
		}
		// Solve the child the fractional value leans toward last: it is
		// the likelier next pop, and the tableau then already holds it.
		if nd.frac-math.Floor(nd.frac) < 0.5 {
			children[0], children[1] = children[1], children[0]
		}
		for _, child := range children {
			if relax(child, nd.basis) == lp.Optimal && s.Objective() < res.Objective-1e-9 {
				expand(child)
			}
		}
	}

	if res.Status == lp.Optimal {
		res.X = bestX
		res.Proven = exhausted
		return res, nil
	}
	if exhausted {
		return &Result{Status: lp.Infeasible, Nodes: res.Nodes, Pivots: res.Pivots, Proven: true}, nil
	}
	return res, nil
}

// solveLP re-optimizes s (from basis when non-nil) within what is left
// of the search's pivot budget, charging the pivots to res; only a basis
// install can overrun the budget, by at most one pivot per row. A
// relaxation cut short leaves the search inexhaustive.
func solveLP(s *lp.Solver, basis *lp.Basis, res *Result, opts Options, exhausted *bool) lp.Status {
	if res.Pivots >= opts.MaxPivots {
		*exhausted = false
		return lp.IterLimit
	}
	before := s.Pivots()
	if basis != nil {
		s.SetBasis(basis)
	}
	st := lp.IterLimit
	if left := opts.MaxPivots - res.Pivots - (s.Pivots() - before); left > 0 {
		st = s.Solve(left)
	}
	res.Pivots += s.Pivots() - before
	if st == lp.IterLimit {
		*exhausted = false
	}
	return st
}
