package partition

import (
	"testing"

	"mobius/internal/model"
)

// BenchmarkMIPPartitionSweep measures the default uncached sweep of MILP
// partition solves for the 8B model on a 4+4 commodity server — every
// candidate stage count up to the default cap, serially — and reports
// the solver effort per sweep, which is the same on every machine.
func BenchmarkMIPPartitionSweep(b *testing.B) {
	params := commodityParams(b, model.GPT8B, 4, 4)
	opts := MIPOptions{DisableCache: true, Parallelism: 1}
	var st *MIPStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if _, st, err = MIP(params, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.Pivots), "pivots/op")
	b.ReportMetric(float64(st.Nodes), "nodes/op")
}
