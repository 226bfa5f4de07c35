package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mobius/internal/cluster"
	"mobius/internal/core"
	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/partition"
	"mobius/internal/planstore"
	"mobius/internal/plansvc"
)

// fleet runs one four-server fleet per op: gold 3B, silver 8B and
// best-effort 15B jobs at twice the mobius-cluster default rates, one
// server loss and one warm restart, each server's plans persisted in a
// store directory that every op starts empty.
type fleet struct {
	seed int64
	cfg  cluster.Config
}

func setupFleet(seed int64, dir string) (runner, error) {
	const load = 2
	class := func(name string, slo int, m model.Config, rate float64) cluster.Class {
		return cluster.Class{
			Name: name, SLO: slo, RatePerS: rate * load, Model: m,
			PartitionAlgo: partition.AlgoBalanced, BalancedStages: 4,
			StepsMin: 2, StepsMax: 3, CheckpointEvery: 2,
		}
	}
	gold := class("gold", 0, model.GPT3B, 0.030)
	silver := class("silver", 1, model.GPT8B, 0.030)
	be := class("best-effort", 2, model.GPT15B, 0.040)
	gold.TokenRatePerS, gold.TokenBurst = 0.030*1.2, 3
	silver.TokenRatePerS, silver.TokenBurst = 0.030*1.2, 3
	silver.DegradeAfterS = 45
	be.DeadlineS = 40
	return &fleet{seed: seed, cfg: cluster.Config{
		Servers:   4,
		Topology:  hw.Commodity(hw.RTX3090Ti, 2, 2),
		Classes:   []cluster.Class{gold, silver, be},
		HorizonS:  1200,
		QueueCap:  6,
		Prewarm:   true,
		StoreRoot: filepath.Join(dir, "stores"),
		Faults: &fault.Spec{
			ServerFails:    []fault.ServerFailFault{{Server: 1, At: 300}},
			ServerRestarts: []fault.ServerRestartFault{{Server: 2, At: 600}},
		},
	}}, nil
}

func (f *fleet) close() error { return os.RemoveAll(f.cfg.StoreRoot) }

// config is op i's fleet on its own seed. It empties the store root the
// previous op left, so every op's stores start empty.
func (f *fleet) config(i int) (cluster.Config, error) {
	cfg := f.cfg
	cfg.Seed = opSeed(f.seed, i)
	return cfg, os.RemoveAll(cfg.StoreRoot)
}

func (f *fleet) op(i int) (simOut, time.Duration, error) {
	cfg, err := f.config(i)
	if err != nil {
		return simOut{}, 0, err
	}
	t0 := time.Now()
	rep, err := cluster.Run(cfg)
	d := time.Since(t0)
	if err != nil {
		return simOut{}, d, err
	}
	out, err := checkFleet(rep)
	return out, d, err
}

// checkFleet is the fleet's output check: every submitted job is
// accounted for exactly once and none is left in flight.
func checkFleet(rep *cluster.Report) (simOut, error) {
	out := simOut{done: rep.Completed, submitted: rep.Submitted}
	for _, j := range rep.Jobs {
		if j.Outcome == "completed" {
			out.stepSum += j.ExecSeconds
			out.steps += float64(j.Steps - j.ResumeStep)
		}
	}
	if err := rep.Conservation(); err != nil {
		return out, err
	}
	if rep.InFlight != 0 {
		return out, fmt.Errorf("fleet: %d jobs still in flight after drain", rep.InFlight)
	}
	return out, nil
}

// traced runs op i's fleet inside a span, then times a warm restart of
// every server from the stores the run left: re-open and load each store,
// start a plan service on it and look every class shape up. The lookups
// must all hit.
func (f *fleet) traced(i int, tr *tracer) (simOut, error) {
	cfg, err := f.config(i)
	if err != nil {
		return simOut{}, err
	}
	root := tr.begin(opSpan)
	var rep *cluster.Report
	err = tr.do(spanCluster, func() (err error) {
		rep, err = cluster.Run(cfg)
		return err
	})
	tr.end(root)
	if err != nil {
		return simOut{}, err
	}
	out, err := checkFleet(rep)
	if err != nil {
		return out, err
	}
	tr.add("cluster.runs", 1)
	tr.add("cluster.events", float64(rep.Events))
	tr.add("cluster.plan_solves", float64(rep.PlanSolves))
	tr.add("cluster.plan_hits", float64(rep.PlanHits))
	tr.add("cluster.dispatch_retries", float64(rep.DispatchRetries))
	tr.add("cluster.gold_wait_p99_s", rep.Classes[0].WaitP99)

	probe := tr.begin(spanProbe)
	defer tr.end(probe)
	for s := 0; s < f.cfg.Servers; s++ {
		if err := f.reload(tr, filepath.Join(f.cfg.StoreRoot, fmt.Sprintf("server%d", s))); err != nil {
			return out, err
		}
	}
	return out, nil
}

// reload warm-starts one server's plan service from its store directory
// and checks that every class shape is served without a solve.
func (f *fleet) reload(tr *tracer, dir string) error {
	var st *planstore.Store
	err := tr.do(spanStoreLoad, func() (err error) {
		if st, err = planstore.Open(planstore.Config{Dir: dir}); err != nil {
			return err
		}
		_, _, err = st.Load()
		return err
	})
	if err != nil {
		return err
	}
	defer st.Close()
	var svc *plansvc.Service
	_ = tr.do(spanSvcNew, func() error {
		svc = plansvc.New(plansvc.Config{Store: st})
		return nil
	})
	for _, cl := range f.cfg.Classes {
		opts := core.Options{
			Model: cl.Model, Topology: f.cfg.Topology, Microbatches: cl.Microbatches,
			PartitionAlgo: cl.PartitionAlgo, BalancedStages: cl.BalancedStages,
		}
		err := tr.do(spanLookup, func() error {
			_, err := svc.PlanMobius(context.Background(), opts)
			return err
		})
		if err != nil {
			return fmt.Errorf("fleet: %s lookup after restart: %w", cl.Name, err)
		}
	}
	solves := svc.Metrics().Solves
	tr.add("plansvc.solves", float64(solves))
	if solves != 0 {
		return fmt.Errorf("fleet: restarted plan service in %s solved %d plans; its store should serve them", dir, solves)
	}
	return nil
}
