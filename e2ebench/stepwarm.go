package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"mobius/internal/core"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/partition"
	"mobius/internal/pipeline"
	"mobius/internal/plansvc"
	"mobius/internal/profile"
	"mobius/internal/zero"
)

// stepCell is one step-warm grid cell.
type stepCell struct {
	system core.System
	opts   core.Options
}

// stepWarm runs the full {Mobius, DeepSpeed-hetero} x Table-3 x {2+2,
// 4+4} grid per op through one plan service prewarmed in set-up. Mobius
// uses the min-stage partition, so no op ever reaches the MIP.
type stepWarm struct {
	seed   int64
	cells  []stepCell
	svc    *plansvc.Service
	solves uint64 // plan solves at the end of set-up
	// ref holds each cell's simulated step bits from the first op; every
	// later op must reproduce them exactly.
	ref []uint64
}

func setupStepWarm(seed int64, _ string) (runner, error) {
	w := &stepWarm{seed: seed, svc: plansvc.New(plansvc.Config{})}
	for _, sys := range []core.System{core.SystemMobius, core.SystemDSHetero} {
		for _, groups := range [][]int{{2, 2}, {4, 4}} {
			for _, m := range model.Table3() {
				opts := core.Options{Model: m, Topology: hw.Commodity(hw.RTX3090Ti, groups...)}
				if sys == core.SystemMobius {
					opts.PartitionAlgo = partition.AlgoMinStage
					opts.Planner = w.svc
					if _, err := w.svc.PlanMobius(context.Background(), opts); err != nil {
						return nil, fmt.Errorf("step-warm prewarm: %w", err)
					}
				}
				w.cells = append(w.cells, stepCell{sys, opts})
			}
		}
	}
	w.solves = w.svc.Metrics().Solves
	return w, nil
}

func (w *stepWarm) close() error { return nil }

// order is op i's seed-determined cell order.
func (w *stepWarm) order(i int) []int {
	return permutation(w.seed, fmt.Sprintf("step-warm/%d", i), len(w.cells))
}

func (w *stepWarm) op(i int) (simOut, time.Duration, error) {
	steps := make([]float64, len(w.cells))
	oom := make([]bool, len(w.cells))
	order := w.order(i)
	t0 := time.Now()
	for _, c := range order {
		rep, err := core.RunCtx(context.Background(), w.cells[c].system, w.cells[c].opts)
		if err != nil {
			return simOut{submitted: len(w.cells)}, time.Since(t0), err
		}
		steps[c], oom[c] = rep.StepTime, rep.OOM
	}
	d := time.Since(t0)
	out, err := w.check(steps, oom)
	return out, d, err
}

// check is step-warm's output check: every cell reproduces the first
// op's simulated step bit for bit, and the plan service solved nothing
// after set-up.
func (w *stepWarm) check(steps []float64, oom []bool) (simOut, error) {
	out := simOut{submitted: len(w.cells)}
	bits := make([]uint64, len(steps))
	for c, s := range steps {
		bits[c] = math.Float64bits(s)
		if !oom[c] {
			out.stepSum += s
			out.steps++
			out.done++
		}
	}
	if w.ref == nil {
		w.ref = bits
	}
	for c := range bits {
		if bits[c] != w.ref[c] {
			return out, fmt.Errorf("step-warm: %s %s on %s: step %v differs from the first pass's %v",
				w.cells[c].system, w.cells[c].opts.Model.Name, w.cells[c].opts.Topology.Name, steps[c], math.Float64frombits(w.ref[c]))
		}
	}
	if s := w.svc.Metrics().Solves; s != w.solves {
		return out, fmt.Errorf("step-warm: plan service solved %d plans after set-up", s-w.solves)
	}
	return out, nil
}

// traced runs op i's grid with each cell's layer calls in the order
// core.RunCtx makes them.
func (w *stepWarm) traced(i int, tr *tracer) (simOut, error) {
	root := tr.begin(opSpan)
	defer tr.end(root)
	before := w.svc.Metrics().Solves
	steps := make([]float64, len(w.cells))
	oom := make([]bool, len(w.cells))
	for _, c := range w.order(i) {
		res, err := w.tracedCell(w.cells[c], tr)
		if err != nil {
			return simOut{submitted: len(w.cells)}, err
		}
		steps[c], oom[c] = res.StepTime, res.OOM
	}
	tr.add("plansvc.solves", float64(w.svc.Metrics().Solves-before))
	return w.check(steps, oom)
}

func (w *stepWarm) tracedCell(c stepCell, tr *tracer) (*pipeline.Result, error) {
	id := tr.begin(spanCell)
	defer tr.end(id)
	topo := c.opts.Topology
	if c.system == core.SystemMobius {
		var plan *core.Plan
		err := tr.do(spanLookup, func() (err error) {
			plan, err = w.svc.PlanMobius(context.Background(), c.opts)
			return err
		})
		if err != nil {
			return nil, err
		}
		return simulateMobius(tr, topo, plan)
	}
	var prof *profile.Profile
	err := tr.do(spanProfile, func() (err error) {
		prof, err = profile.Run(c.opts.Model, topo.GPUs[0].Spec, c.opts.ProfileOptions)
		return err
	})
	if err != nil {
		return nil, err
	}
	var res *pipeline.Result
	err = tr.do(spanZero, func() (err error) {
		res, err = zero.Run(topo, zero.Config{Profile: prof})
		return err
	})
	if err != nil {
		return nil, err
	}
	analyze(tr, topo, res)
	return res, nil
}
