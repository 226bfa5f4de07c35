package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is the number of samples that must rank above a reported
// tail percentile: fewer would make the tail one or two unlucky ops.
const tailBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest whole percentile (1 to 99, nearest rank) that
// has at least tailBeyond samples ranked above it, with that percentile.
// With too few samples no percentile meets the rule; the tail then falls
// back to the median, reported at percentile 50, since the maximum of a
// handful of ops is a single op's noise.
func tail(xs []float64) (value, percentile float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	n := len(s)
	for k := 99; k >= 1; k-- {
		i := max(int(math.Ceil(float64(k)*float64(n)/100))-1, 0)
		if n-1-i >= tailBeyond {
			return s[i], float64(k)
		}
	}
	return median(s), 50
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// durationsMS converts op durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// tally counts ops: an op fails when it returned an error or its output
// check did not hold.
type tally struct {
	attempted, failed int
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
	}
}

// errorShare is failed over attempted ops; 0 before any op.
func (t tally) errorShare() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// splitmix64 is the seed expander behind every derived stream: problem
// order, cell order and per-op fleet seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stream derives the i-th value of the named stream of a workload seed.
func stream(seed int64, name string, i int) uint64 {
	h := uint64(seed)
	for _, c := range []byte(name) {
		h = splitmix64(h ^ uint64(c))
	}
	return splitmix64(h ^ uint64(i))
}

// permutation returns a seed-determined order of 0..n-1 (Fisher-Yates
// over the named stream).
func permutation(seed int64, name string, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(stream(seed, name, i) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// opSeed is the fleet seed of op i: distinct per op, fixed by the
// workload seed.
func opSeed(seed int64, i int) int64 {
	return int64(stream(seed, "fleet-op", i) >> 1)
}

// finite reports whether v is a usable simulated time.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
