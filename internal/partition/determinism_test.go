package partition

import (
	"reflect"
	"testing"

	"mobius/internal/hw"
	"mobius/internal/model"
)

// commodityParams poses the planning problem core does for a Mobius plan
// of cfg on a commodity RTX 3090 Ti server with the given GPUs per root
// complex: one microbatch per GPU, the core's usable-memory fraction,
// and the slowest link on the swap path as the bandwidth.
func commodityParams(tb testing.TB, cfg model.Config, groups ...int) Params {
	tb.Helper()
	topo := hw.Commodity(hw.RTX3090Ti, groups...)
	p := testParams(tb, cfg, topo.NumGPUs())
	p.Microbatches = topo.NumGPUs()
	p.GPUMem = topo.GPUMem(0) * 0.92
	p.Bandwidth = topo.GPUs[0].Spec.LinkBW
	for _, rc := range topo.RootComplexBW {
		p.Bandwidth = min(p.Bandwidth, rc)
	}
	p.Latency = topo.TransferLatency
	return p
}

// TestSweepDeterministicAcrossParallelism runs the full default sweep for
// 8B and 15B on a 4+4 server serially and with four workers: the
// partition, the candidates tried, and the solver effort (nodes and
// pivots) must be identical, because no budget reads the clock and each
// candidate's search is a pure function of its problem.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	for _, cfg := range []model.Config{model.GPT8B, model.GPT15B} {
		p := commodityParams(t, cfg, 4, 4)
		var refPart *Partition
		var ref *MIPStats
		for _, par := range []int{1, 4} {
			part, st, err := MIP(p, MIPOptions{Parallelism: par, DisableCache: true})
			if err != nil {
				t.Fatalf("%s parallelism %d: %v", cfg.Name, par, err)
			}
			if st.Pivots <= 0 {
				t.Errorf("%s parallelism %d: no pivots counted", cfg.Name, par)
			}
			if ref == nil {
				refPart, ref = part, st
				continue
			}
			if !reflect.DeepEqual(part, refPart) {
				t.Errorf("%s: parallelism %d chose another partition\nserial: %+v\ngot:    %+v", cfg.Name, par, refPart.Stages, part.Stages)
			}
			if st.Nodes != ref.Nodes || st.Pivots != ref.Pivots || st.StepTime != ref.StepTime ||
				st.Proven != ref.Proven || !reflect.DeepEqual(st.TriedStageCounts, ref.TriedStageCounts) {
				t.Errorf("%s: parallelism %d effort differs\nserial: %+v\ngot:    %+v", cfg.Name, par, *ref, *st)
			}
		}
	}
}

// TestMIPStatsProven: the default 8B sweep on four GPUs runs every
// candidate's branch and bound to exhaustion, so the sweep is proven; a
// one-node budget stops a candidate short, so it is not.
func TestMIPStatsProven(t *testing.T) {
	p := testParams(t, model.GPT8B, 4)
	_, st, err := MIP(p, MIPOptions{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Proven {
		t.Errorf("default sweep not proven: %+v", *st)
	}
	_, st, err = MIP(p, MIPOptions{DisableCache: true, NodeLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Proven {
		t.Errorf("sweep with a one-node budget claims a proof: %+v", *st)
	}
}
