package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"mobius/internal/core"
	"mobius/internal/hw"
	"mobius/internal/mapping"
	"mobius/internal/model"
	"mobius/internal/partition"
	"mobius/internal/pipeline"
	"mobius/internal/plansvc"
	"mobius/internal/profile"
	"mobius/internal/sim"
	"mobius/internal/trace"
)

// planCases are the plan-cold problems: every Table-3 model on the 2+2
// and 4+4 commodity servers, M = N, serial planning.
func planCases() []core.Options {
	var out []core.Options
	for _, groups := range [][]int{{2, 2}, {4, 4}} {
		for _, m := range model.Table3() {
			out = append(out, core.Options{Model: m, Topology: hw.Commodity(hw.RTX3090Ti, groups...), Parallelism: 1})
		}
	}
	return out
}

// planCold runs each problem once per process, in seed order, so every
// op plans cold: the MIP memo never holds a problem before its op.
type planCold struct {
	cases []core.Options
	order []int
	// timed holds the plan each untraced op produced, for the drift
	// count of its traced twin.
	timed []*core.Plan
}

func setupPlanCold(seed int64, _ string) (runner, error) {
	p := &planCold{cases: planCases()}
	p.timed = make([]*core.Plan, len(p.cases))
	p.order = permutation(seed, "plan-cold", len(p.cases))
	seen := map[plansvc.Key]bool{}
	for _, c := range p.cases {
		k, err := plansvc.KeyOf(c)
		if err != nil {
			return nil, err
		}
		if seen[k] {
			return nil, fmt.Errorf("plan-cold: two problems share plan key %s", k)
		}
		seen[k] = true
	}
	return p, nil
}

func (p *planCold) close() error { return nil }

func (p *planCold) op(i int) (simOut, time.Duration, error) {
	opts := p.cases[p.order[i]]
	t0 := time.Now()
	rep, err := core.RunCtx(context.Background(), core.SystemMobius, opts)
	d := time.Since(t0)
	if err != nil {
		return simOut{submitted: 1}, d, err
	}
	p.timed[i] = rep.Plan
	out, err := checkStep(opts.Topology, rep.Plan, rep.StepTime, rep.OOM)
	return out, d, err
}

// checkStep is plan-cold's output check: a valid plan whose simulated
// step fits in memory and has a finite positive duration.
func checkStep(topo *hw.Topology, plan *core.Plan, step float64, oom bool) (simOut, error) {
	out := simOut{submitted: 1}
	if err := plan.Validate(topo); err != nil {
		return out, err
	}
	if oom {
		return out, fmt.Errorf("plan-cold: %s step is OOM", topo.Name)
	}
	if !finite(step) || step <= 0 {
		return out, fmt.Errorf("plan-cold: simulated step %v is not a finite positive time", step)
	}
	out.stepSum, out.steps, out.done = step, 1, 1
	return out, nil
}

// traced plans and simulates problem i again, calling each layer in the
// order core.RunCtx does. The MIP runs with its defaults spelled out
// (MIPOptions.Normalized), which is the same problem under another memo
// key, so this solve is cold too; a solve that returns the untraced op's
// stats hit the memo and fails the op. A plan that differs from the
// untraced op's counts as drift.
func (p *planCold) traced(i int, tr *tracer) (simOut, error) {
	opts := p.cases[p.order[i]]
	topo := opts.Topology
	root := tr.begin(opSpan)
	defer tr.end(root)
	cell := tr.begin(spanCell)
	defer tr.end(cell)

	var prof *profile.Profile
	err := tr.do(spanProfile, func() (err error) {
		prof, err = profile.Run(opts.Model, topo.GPUs[0].Spec, opts.ProfileOptions)
		return err
	})
	if err != nil {
		return simOut{submitted: 1}, err
	}
	params := partition.Params{
		Profile:      prof,
		NumGPUs:      topo.NumGPUs(),
		Microbatches: topo.NumGPUs(),
		GPUMem:       topo.GPUMem(0) * core.UsableMemFraction,
		Bandwidth:    core.PlanBandwidth(topo),
		Latency:      topo.TransferLatency,
	}
	mipOpts := partition.MIPOptions{Parallelism: opts.Parallelism}.Normalized(blocks(prof))
	plan := &core.Plan{Profile: prof}
	err = tr.do(spanMIP, func() (err error) {
		plan.Partition, plan.MIPStats, err = partition.MIPCtx(context.Background(), params, mipOpts)
		return err
	})
	if err != nil {
		return simOut{submitted: 1}, err
	}
	st := plan.MIPStats
	if t := p.timed[i]; t != nil && st == t.MIPStats {
		return simOut{submitted: 1}, fmt.Errorf("plan-cold: traced MIP sweep of %s on %s hit the memo", opts.Model.Name, topo.Name)
	}
	tr.add("partition.mips", 1)
	tr.add("partition.candidates", float64(len(st.TriedStageCounts)))
	tr.add("milp.nodes", float64(st.Nodes))
	if st.UsedMinStageFallback {
		tr.add("partition.min_stage", 1)
	}
	err = tr.do(spanCross, func() (err error) {
		plan.Mapping, err = mapping.CrossN(topo, plan.Partition.NumStages(), opts.Parallelism)
		return err
	})
	if err != nil {
		return simOut{submitted: 1}, err
	}
	// Like core, keep a zero estimate when the evaluator cannot price
	// the partition; the simulation below is what gets checked.
	_ = tr.do(spanStepTime, func() error {
		plan.PredictedStep, _ = partition.StepTime(params, plan.Partition)
		return nil
	})
	if t := p.timed[i]; t != nil && !samePlan(t, plan) {
		tr.add("core.plan_drift", 1)
	}

	res, err := simulateMobius(tr, topo, plan)
	if err != nil {
		return simOut{submitted: 1}, err
	}
	return checkStep(topo, plan, res.StepTime, res.OOM)
}

// blocks counts the profile's transformer blocks, the unit the MIP
// options are normalized over.
func blocks(prof *profile.Profile) int {
	n := 0
	for _, l := range prof.Layers {
		if l.Layer.Kind == model.KindBlock {
			n++
		}
	}
	return n
}

// samePlan compares the stage boundaries and GPU mapping of two plans.
func samePlan(a, b *core.Plan) bool {
	if a.Partition.NumStages() != b.Partition.NumStages() || !slices.Equal(a.Mapping.Perm, b.Mapping.Perm) {
		return false
	}
	for j, s := range a.Partition.Stages {
		if t := b.Partition.Stages[j]; s.First != t.First || s.Last != t.Last {
			return false
		}
	}
	return true
}

// simulateMobius builds and runs the plan's step and analyzes its trace
// the way core.RunCtx does, each call in its own span.
func simulateMobius(tr *tracer, topo *hw.Topology, plan *core.Plan) (*pipeline.Result, error) {
	var step *pipeline.MobiusStep
	err := tr.do(spanBuild, func() (err error) {
		step, err = pipeline.BuildMobius(topo, pipeline.MobiusConfig{
			Partition:    plan.Partition,
			Mapping:      plan.Mapping,
			Microbatches: topo.NumGPUs(),
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	var res *pipeline.Result
	err = tr.do(spanSimRun, func() (err error) {
		res, err = step.Run(nil, sim.ChecksumConfig{})
		return err
	})
	if err != nil {
		return nil, err
	}
	analyze(tr, topo, res)
	return res, nil
}

// analyze derives the step report's trace aggregates (traffic, bandwidth
// CDFs, exposed communication) as core.RunCtx does, and counts the
// simulated work.
func analyze(tr *tracer, topo *hw.Topology, res *pipeline.Result) {
	tr.add("sim.cells", 1)
	tr.add("sim.tasks", float64(res.Server.Sim.NumTasks()))
	tr.add("trace.flows", float64(len(res.Recorder.Flows)))
	if res.OOM {
		return
	}
	_ = tr.do(spanAnalysis, func() error {
		res.Recorder.TotalBytes(nil)
		res.Recorder.BandwidthCDF(nil)
		res.Recorder.BandwidthCDF(func(tag trace.Tag) bool { return tag.PeerGPU < 0 })
		res.Recorder.NonOverlappedCommFraction(topo.NumGPUs(), res.StepTime)
		return nil
	})
}
