package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/algs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/job"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/workload"
)

// perLayer lists the per-layer metrics a traced run reports, with units.
// The probes below measure the layers every workload shares, the HTTP
// front-end included, and run in every traced run; the rest come from
// the workload's own traced ops and read 0 on workloads that do not
// exercise that layer.
var perLayer = []metricDef{
	{"des.event_ns", "ns"},
	{"cluster.lease_ns", "ns"},
	{"mpi.pingpong_us.live", "us"},
	{"mpi.pingpong_us.des", "us"},
	{"mpi.pingpong_us.symbolic", "us"},
	{"mpi.barrier_us.live", "us"},
	{"mpi.barrier_us.des", "us"},
	{"mpi.barrier_us.symbolic", "us"},
	{"workload.ge.rung_ms", "ms"},
	{"workload.mm.rung_ms", "ms"},
	{"workload.jacobi.rung_ms", "ms"},
	{"workload.cg.rung_ms", "ms"},
	{"workload.mg.rung_ms", "ms"},
	{"workload.spmv.rung_ms", "ms"},
	{"mpi.msgs", "count"},
	{"mpi.bytes", "B"},
	{"core.predict_chain_ms", "ms"},
	{"workload.inner_run_us.jacobi", "us"},
	{"workload.inner_run_us.cg", "us"},
	{"workload.inner_run_us.mm", "us"},
	{"workload.recovered_run_ms", "ms"},
	{"spec.prepare_us", "us"},
	{"experiments.compare_s", "s"},
	{"experiments.homog_s", "s"},
	{"experiments.ckpt-interval_s", "s"},
	{"experiments.ablate-dist_s", "s"},
	{"experiments.ablate-collectives_s", "s"},
	{"experiments.recovered-sweep_s", "s"},
	{"experiments.jobstream-faults_s", "s"},
	{"experiments.other_s", "s"},
	{"runner.memo_hits", "count"},
	{"runner.memo_misses", "count"},
	{"runner.memo_hit_ratio", "ratio"},
	{"serve.memo_hit_ratio", "ratio"},
	{"job.simulate_ms.fcfs", "ms"},
	{"job.simulate_ms.sjf", "ms"},
	{"job.simulate_ms.priority", "ms"},
	{"job.simulate_ms.pack", "ms"},
	{"job.undisturbed_ms.fcfs", "ms"},
	{"job.undisturbed_ms.sjf", "ms"},
	{"job.undisturbed_ms.priority", "ms"},
	{"job.undisturbed_ms.pack", "ms"},
	{"experiments.render_ms", "ms"},
	{"job.placements", "count"},
	{"job.placements_shared", "count"},
	{"job.completed", "count"},
	{"job.rejected", "count"},
	{"job.shed", "count"},
	{"job.failed", "count"},
	{"job.recovered", "count"},
	{"job.retried", "count"},
	{"job.completed_ratio", "ratio"},
	{"spec.exec_hit_us", "us"},
	{"serve.http_us", "us"},
	{"serve.p50_ms", "ms"},
	{"serve.p90_ms", "ms"},
	{"serve.p99_ms", "ms"},
	{"serve.rps", "1/s"},
	{"wall.setup_s", "s"},
	{"wall.op_ms", "ms"},
	{"wall.p99_ms", "ms"},
	{"mem.peak_rss_mb", "MB"},
	{"raw.setup_s", "s"},
	{"raw.cpu_ms_per_op", "ms"},
	{"ref.rep_ms", "ms"},
	{"trace.overhead.setup_s", "s"},
	{"trace.overhead.cpu_ms_per_op", "ms"},
	{"trace.overhead.alloc_mb_per_op", "MB"},
	{"trace.overhead.wall.setup_s", "s"},
	{"trace.overhead.wall.op_ms", "ms"},
	{"trace.overhead.wall.p99_ms", "ms"},
	{"trace.overhead.mem.peak_rss_mb", "MB"},
	{"trace.overhead.raw.setup_s", "s"},
	{"trace.overhead.raw.cpu_ms_per_op", "ms"},
	{"trace.overhead.ref.rep_ms", "ms"},
}

// Probe repetition: each probe runs at least probeReps times and at
// least probeBudget, and reports the median call.
const (
	probeReps   = 5
	probeBudget = 100 * time.Millisecond
	probeOp     = -2
)

// probe times fn and returns its median duration per call, recording a
// span for every call.
func probe(tr *tracer, name string, fn func() error) (time.Duration, error) {
	var ds []float64
	start := time.Now()
	for len(ds) < probeReps || time.Since(start) < probeBudget {
		id := tr.begin(probeOp, 0, name)
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		ds = append(ds, float64(time.Since(t0)))
		tr.end(id)
	}
	return time.Duration(median(ds)), nil
}

// defaultEngine is the engine a RunSpec gets when it leaves engine
// unset, so the probes follow any change of the default.
func defaultEngine() (mpi.Engine, error) {
	rs := spec.RunSpec{Kind: spec.KindJobstream}
	if err := rs.Normalize(); err != nil {
		return 0, err
	}
	return spec.ParseEngine(rs.Engine)
}

// layerProbes times direct calls into each shared layer's public API
// and adds the results to res.Layers, then fills every per-layer metric
// the workload did not exercise with 0. The HTTP probe's requests count
// as ops of res: their bodies are checked like any other output.
func layerProbes(ctx context.Context, tr *tracer, res *childResult) error {
	layers := res.Layers
	model, err := spec.SunwulfModel()
	if err != nil {
		return err
	}
	eng, err := defaultEngine()
	if err != nil {
		return err
	}
	steps := []func() error{
		func() error { return probeDES(tr, layers) },
		func() error { return probeLease(tr, layers) },
		func() error { return probeMPI(tr, layers, model) },
		func() error { return probeRungs(ctx, tr, layers, model, eng) },
		func() error { return probePredict(tr, layers, model) },
		func() error { return probeInnerRuns(ctx, tr, layers, model, eng) },
		func() error { return probePrepare(tr, layers) },
		func() error { return probeServe(ctx, tr, res) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	for _, l := range perLayer {
		if _, ok := layers[l.name]; !ok {
			layers[l.name] = 0
		}
	}
	return nil
}

// probeDES schedules and runs a batch of events on a fresh kernel.
func probeDES(tr *tracer, layers map[string]float64) error {
	const events = 10000
	d, err := probe(tr, "des.kernel", func() error {
		k := des.NewKernel()
		for i := 0; i < events; i++ {
			k.Schedule(float64(i%97), func() {})
		}
		return k.Run()
	})
	layers["des.event_ns"] = float64(d.Nanoseconds()) / events
	return err
}

// probeLease acquires and releases a four-node lease on the shared
// job-stream cluster.
func probeLease(tr *tracer, layers map[string]float64) error {
	const pairs = 1000
	cl, err := cluster.MMConfig(experiments.JobStreamP)
	if err != nil {
		return err
	}
	ranks := []int{0, 1, 2, 3}
	d, err := probe(tr, "cluster.lease", func() error {
		alloc, err := cluster.NewAllocator(cl, cluster.AllocatorOptions{
			AcquireMS: experiments.JobStreamAcquireMS, ReleaseMS: experiments.JobStreamReleaseMS,
		})
		if err != nil {
			return err
		}
		for i := 0; i < pairs; i++ {
			l, err := alloc.Acquire("probe", ranks, float64(i))
			if err != nil {
				return err
			}
			if err := alloc.Release(l, float64(i)); err != nil {
				return err
			}
		}
		return nil
	})
	layers["cluster.lease_ns"] = float64(d.Nanoseconds()) / pairs
	return err
}

// probeMPI times one-word ping-pongs on two ranks and barriers on eight,
// through mpi.Run on every engine.
func probeMPI(tr *tracer, layers map[string]float64, model simnet.CostModel) error {
	const rounds = 200
	pair, err := cluster.Uniform("probe-pair", 2, 50)
	if err != nil {
		return err
	}
	eight, err := cluster.Uniform("probe-eight", 8, 50)
	if err != nil {
		return err
	}
	word := []float64{1}
	pingpong := func(c mpi.Comm) error {
		peer := 1 - c.Rank()
		for i := 0; i < rounds; i++ {
			if c.Rank() == 0 {
				c.Send(peer, 0, word)
				c.Recv(peer, 0)
			} else {
				c.Recv(peer, 0)
				c.Send(peer, 0, word)
			}
		}
		return nil
	}
	barrier := func(c mpi.Comm) error {
		for i := 0; i < rounds; i++ {
			c.Barrier()
		}
		return nil
	}
	for _, eng := range []mpi.Engine{mpi.EngineLive, mpi.EngineDES, mpi.EngineSymbolic} {
		opts := mpi.Options{Engine: eng}
		d, err := probe(tr, "mpi.pingpong."+eng.String(), func() error {
			_, err := mpi.Run(pair, model, opts, pingpong)
			return err
		})
		if err != nil {
			return err
		}
		layers["mpi.pingpong_us."+eng.String()] = float64(d.Nanoseconds()) / 1e3 / rounds
		d, err = probe(tr, "mpi.barrier."+eng.String(), func() error {
			_, err := mpi.Run(eight, model, opts, barrier)
			return err
		})
		if err != nil {
			return err
		}
		layers["mpi.barrier_us."+eng.String()] = float64(d.Nanoseconds()) / 1e3 / rounds
	}
	return nil
}

// rungWorkloads are the registered workloads timed at the widest paper
// rung.
var rungWorkloads = []string{"ge", "mm", "jacobi", "cg", "mg", "spmv"}

// probeRungs runs each workload once, numerically, on its p=32 ladder
// rung with the default engine, and totals the messages and bytes moved.
func probeRungs(ctx context.Context, tr *tracer, layers map[string]float64, model simnet.CostModel, eng mpi.Engine) error {
	var msgs, moved int64
	for _, name := range rungWorkloads {
		w, err := workload.Get(name)
		if err != nil {
			return err
		}
		cl, err := w.ClusterLadder(32)
		if err != nil {
			return err
		}
		var out workload.Outcome
		d, err := probe(tr, "workload.rung."+name, func() (err error) {
			out, err = w.Run(ctx, cl, model, mpi.Options{Engine: eng}, workload.Spec{N: 96, Seed: 7})
			return err
		})
		if err != nil {
			return err
		}
		if out.Check == 0 {
			return fmt.Errorf("rung %s: numeric run returned no checksum", name)
		}
		layers["workload."+name+".rung_ms"] = ms2(d)
		msgs += out.Stats.Messages
		moved += out.Stats.BytesMoved
	}
	layers["mpi.msgs"] = float64(msgs)
	layers["mpi.bytes"] = float64(moved)
	return nil
}

// probePredict prices GE's quick asymptotic ladder in closed form.
func probePredict(tr *tracer, layers map[string]float64, model simnet.CostModel) error {
	cfg, err := experiments.Quick()
	if err != nil {
		return err
	}
	w, err := workload.Get("ge")
	if err != nil {
		return err
	}
	machines := make([]core.AnalyticMachine, len(cfg.AsymSizes))
	for i, p := range cfg.AsymSizes {
		cl, err := w.ClusterLadder(p)
		if err != nil {
			return err
		}
		if machines[i], err = w.Machine(cl, model); err != nil {
			return err
		}
	}
	d, err := probe(tr, "core.predict_chain", func() error {
		_, _, _, err := core.PredictChain(machines, w.DefaultTarget(), 8, 1e12)
		return err
	})
	layers["core.predict_chain_ms"] = ms2(d)
	return err
}

// probeInnerRuns times the symbolic-mode runs job.Simulate prices a
// lease with: each default-stream job shape on a leased subset of the
// shared cluster, and one shape under a one-crash recovery plan.
func probeInnerRuns(ctx context.Context, tr *tracer, layers map[string]float64, model simnet.CostModel, eng mpi.Engine) error {
	cfg, err := experiments.Default()
	if err != nil {
		return err
	}
	shared, err := cluster.MMConfig(experiments.JobStreamP)
	if err != nil {
		return err
	}
	for i, t := range job.DefaultStream().Tenants {
		w, err := workload.Get(t.Workload)
		if err != nil {
			return err
		}
		alloc, err := cluster.NewAllocator(shared, cluster.AllocatorOptions{})
		if err != nil {
			return err
		}
		ranks := make([]int, t.Width)
		for r := range ranks {
			ranks[r] = r
		}
		lease, err := alloc.Acquire(t.Name, ranks, 0)
		if err != nil {
			return err
		}
		rspec := workload.Spec{N: t.N, Seed: cfg.Seed, Symbolic: true}
		var out workload.Outcome
		d, err := probe(tr, "workload.inner_run."+t.Workload, func() (err error) {
			out, err = w.Run(ctx, lease.Sub, model, mpi.Options{Engine: eng}, rspec)
			return err
		})
		if err != nil {
			return err
		}
		layers["workload.inner_run_us."+t.Workload] = float64(d.Nanoseconds()) / 1e3
		if i > 0 {
			continue
		}
		// The first shape again, with rank 1 crashing halfway through.
		rspec.PinnedSpeeds = lease.Sub.Speeds()
		plan := faults.Plan{Crashes: []faults.Crash{{Rank: 1, AtMS: out.Stats.TimeMS / 2}}}
		rcfg := algs.RecoveryConfig{IntervalSteps: job.DefaultRetry().CkptSteps}
		d, err = probe(tr, "workload.recovered_run."+t.Workload, func() error {
			mopts := mpi.Options{Engine: eng, Faults: plan.Injector()}
			_, rec, err := w.RunRecovered(ctx, lease.Sub, model, mopts, rspec, rcfg)
			if err == nil && !rec.Recovered {
				err = fmt.Errorf("the crash did not trigger a rollback")
			}
			return err
		})
		if err != nil {
			return err
		}
		layers["workload.recovered_run_ms"] = ms2(d)
	}
	return nil
}

// probePrepare times Normalize+Validate+Key over the hot set, per spec.
func probePrepare(tr *tracer, layers map[string]float64) error {
	hot, err := hotSet()
	if err != nil {
		return err
	}
	d, err := probe(tr, "spec.prepare", func() error {
		for _, h := range hot {
			rs := h.raw
			if err := rs.Normalize(); err != nil {
				return err
			}
			if err := rs.Validate(); err != nil {
				return err
			}
			if _, err := rs.Key(); err != nil {
				return err
			}
		}
		return nil
	})
	layers["spec.prepare_us"] = float64(d.Nanoseconds()) / 1e3 / float64(len(hot))
	return err
}
