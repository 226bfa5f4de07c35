package main

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n   int
		pct float64
	}{{11, 9}, {12, 16}, {50, 80}, {190, 94}, {1000, 99}, {4000, 99}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // descending, so tail must sort
		}
		v, pct := tail(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < tailBeyond || pct != c.pct {
			t.Errorf("n=%d: tail %v at p%v with %d samples beyond; want p%v with at least %d beyond",
				c.n, v, pct, beyond, c.pct, tailBeyond)
		}
		// The next whole percentile up must leave fewer than ten beyond.
		if next := int(math.Ceil((pct + 1) * float64(c.n) / 100)); pct < 99 && c.n-next >= tailBeyond {
			t.Errorf("n=%d: p%v also leaves %d samples beyond", c.n, pct+1, c.n-next)
		}
	}
	if v, pct := tail([]float64{3, 9, 1, 4}); v != 3.5 || pct != 50 {
		t.Errorf("too few samples: got %v at p%v, want the median 3.5 at p50", v, pct)
	}
	if v, pct := tail(nil); v != 0 || pct != 0 {
		t.Errorf("no samples: got %v at p%v", v, pct)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{5}, 5}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSeedFixesProblemOrder(t *testing.T) {
	a := permutation(7, "plan-cold", 8)
	if !slices.Equal(a, permutation(7, "plan-cold", 8)) {
		t.Fatal("the same seed gave two problem orders")
	}
	s := slices.Clone(a)
	slices.Sort(s)
	if !slices.Equal(s, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("order %v is not a permutation of the 8 problems", a)
	}
	orders := map[string]bool{}
	for seed := int64(0); seed < 20; seed++ {
		orders[fmtInts(permutation(seed, "plan-cold", 8))] = true
	}
	if len(orders) < 15 {
		t.Errorf("20 seeds gave only %d distinct problem orders", len(orders))
	}
}

func fmtInts(xs []int) string {
	var b bytes.Buffer
	for _, x := range xs {
		b.WriteByte(byte('0' + x))
	}
	return b.String()
}

func TestSeedFixesFleetSeeds(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 5000; i++ {
		s := opSeed(3, i)
		if s != opSeed(3, i) {
			t.Fatalf("op %d: fleet seed not reproducible", i)
		}
		if s < 0 || seen[s] {
			t.Fatalf("op %d: fleet seed %d negative or repeated", i, s)
		}
		seen[s] = true
	}
	if opSeed(3, 0) == opSeed(4, 0) {
		t.Error("workload seeds 3 and 4 gave the same first fleet seed")
	}
}

func TestErrorShareCountsFailedOps(t *testing.T) {
	var tl tally
	if tl.errorShare() != 0 {
		t.Fatal("error share before any op should be 0")
	}
	for i := 0; i < 10; i++ {
		var err error
		if i%4 == 0 {
			err = errors.New("output check failed")
		}
		tl.record(err)
	}
	if tl.attempted != 10 || tl.failed != 3 || tl.errorShare() != 0.3 {
		t.Errorf("got %d attempted, %d failed, share %v; want 10, 3, 0.3", tl.attempted, tl.failed, tl.errorShare())
	}
}
