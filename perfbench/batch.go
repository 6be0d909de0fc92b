package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/mpi"
	"repro/internal/runner"
	"repro/internal/simnet"
	"repro/internal/spec"
)

// batchChild measures a batch workload: one untimed warm-up op, then
// cold ops from the seed's window of the sequence until the run's
// seconds are spent (at least minOps, at most the whole sequence). The
// reference kernel runs before, between and after the timed ops of a
// workload with refReps > 0, and the CPU times are scaled by it
// (reference.go): each op's by the mean of the kernel's runs just
// before and just after it, set-up's by their median.
func batchChild(ctx context.Context, w bench, o options, tr *tracer) (childResult, error) {
	gold, err := goldenFor(w.name)
	if err != nil {
		return childResult{}, err
	}
	res := childResult{Metrics: map[string]float64{}, Layers: map[string]float64{}}
	out, _, err := runCold(ctx, w.spec(warmupOp), runner.Hooks{}, 0)
	res.Attempted++
	if !outputOK(out, err, gold.Warmup, "warm-up") {
		res.Failed++
	}
	res.ready()
	if o.child == "setup" {
		return res, nil
	}

	var (
		opMS, cpuMS, rawMS, refMS, allocMB []float64
		acc                                = newLayerAcc()
		ms                                 runtime.MemStats
	)
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	scaled := w.refReps > 0
	var refBefore float64
	if scaled {
		// An untimed kernel run first grows the young process's heap to
		// the kernel's size, whose page faults would otherwise land on
		// the first timed run.
		referenceMS(w.refReps)
		refBefore = referenceMS(w.refReps)
	}
	for j, i := range w.window(o.seed) {
		if j >= minOps && !time.Now().Before(deadline) {
			break
		}
		rs := w.spec(i)
		runtime.GC()
		opSpan := tr.begin(j, 0, "op")
		runSpan := tr.begin(j, opSpan, "spec.run")
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		cpu0 := cpuTime()
		t0 := time.Now()
		out, stats, err := runCold(ctx, rs, tr.experimentHooks(j, runSpan), 0)
		elapsed := time.Since(t0)
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&ms)
		tr.end(runSpan)
		res.Attempted++
		ok := outputOK(out, err, gold.Ops[i], fmt.Sprintf("op %d", i))
		if err != nil {
			res.Failed++
			tr.end(opSpan)
			continue
		}
		opMS = append(opMS, ms2(elapsed))
		rawMS = append(rawMS, ms2(cpu))
		cpuMS = append(cpuMS, ms2(cpu))
		if scaled {
			refAfter := referenceMS(w.refReps)
			ref := (refBefore + refAfter) / 2
			refBefore = refAfter
			refMS = append(refMS, ref)
			cpuMS[len(cpuMS)-1] *= refNominalMS / ref
		}
		allocMB = append(allocMB, float64(ms.TotalAlloc-alloc0)/1e6)
		acc.add("runner.memo_hits", float64(stats.Hits))
		acc.add("runner.memo_misses", float64(stats.Misses))
		acc.add("runner.memo_hit_ratio", ratio(stats.Hits, stats.Hits+stats.Misses))
		if tr != nil && rs.Kind == spec.KindJobstream {
			replayed, err := traceStream(ctx, tr, j, opSpan, rs, out, elapsed, acc)
			if err != nil {
				return res, err
			}
			ok = ok && replayed
		}
		if !ok {
			res.Failed++
		}
		tr.end(opSpan)
	}
	if len(opMS) == 0 {
		return res, fmt.Errorf("%s: every timed op returned an error", w.name)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return res, err
	}
	res.Metrics["wall.op_ms"] = median(opMS)
	res.Metrics["wall.p99_ms"] = percentile(opMS, 99)
	res.Metrics["cpu_ms_per_op"] = median(cpuMS)
	res.Metrics["raw.cpu_ms_per_op"] = median(rawMS)
	res.Metrics["ref.rep_ms"] = median(refMS)
	res.Metrics["setup_s"] = scaledSetup(res.Metrics["raw.setup_s"], res.Metrics["ref.rep_ms"])
	res.Metrics["alloc_mb_per_op"] = median(allocMB)
	res.Metrics["mem.peak_rss_mb"] = rss
	if tr != nil {
		acc.into(res.Layers)
		if rs := w.spec(warmupOp); rs.Kind == spec.KindExperiments {
			ok, err := experimentBreakdown(ctx, tr, rs, gold.Warmup, res.Layers)
			if err != nil {
				return res, err
			}
			res.Attempted++
			if !ok {
				res.Failed++
			}
		}
	}
	return res, nil
}

// outputOK checks one op: it ran, and its bytes hash to the recorded
// digest. An op with wrong bytes still counts in the timings; an op
// that errored does not.
func outputOK(out []byte, err error, want, what string) bool {
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
		return false
	}
	if got := digest(out); got != want {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output digest %s, recorded %s\n", what, got, want)
		return false
	}
	return true
}

// streamCase is a normalized jobstream spec unpacked into the arguments
// the executor passes to job.Simulate: the fault-free options of the
// undisturbed pass and the options of the measured pass (the same when
// the stream has no faults and no admission control). The executor
// assembles the same options inside experiments.JobStreamWith and
// JobStreamFaultsWith; checkReplay fails an op whose output disagrees
// with a replay from these, so the two cannot drift apart unnoticed.
type streamCase struct {
	rs             spec.RunSpec
	cl             *cluster.Cluster
	model          simnet.CostModel
	jobs           []job.Job
	plain, faulted job.Options
	churn          bool
}

func newStreamCase(rs spec.RunSpec) (streamCase, error) {
	if err := rs.Normalize(); err != nil {
		return streamCase{}, err
	}
	eng, err := spec.ParseEngine(rs.Engine)
	if err != nil {
		return streamCase{}, err
	}
	cfg, err := experiments.Default()
	if err != nil {
		return streamCase{}, err
	}
	c := streamCase{rs: rs, model: cfg.Model}
	if c.cl, err = cluster.MMConfig(rs.SharedP); err != nil {
		return c, err
	}
	if c.jobs, err = rs.Stream.Jobs(); err != nil {
		return c, err
	}
	c.plain = job.Options{
		MPI:   mpi.Options{Engine: eng, Contended: cfg.Contended, Trace: cfg.Trace},
		Alloc: cluster.AllocatorOptions{AcquireMS: experiments.JobStreamAcquireMS, ReleaseMS: experiments.JobStreamReleaseMS},
		Seed:  rs.Seed,
	}
	c.faulted = c.plain
	c.churn = rs.NodeFaults != nil || rs.Retry != nil || rs.Admission != nil
	if rs.NodeFaults != nil {
		c.faulted.Health = *rs.NodeFaults
	}
	if rs.Retry != nil {
		c.faulted.Retry = *rs.Retry
	}
	if rs.Admission != nil {
		c.faulted.Admission = *rs.Admission
	}
	return c, nil
}

// policyRun is one policy's replayed simulation: the measured pass and,
// on a faulted stream, the undisturbed baseline pass.
type policyRun struct {
	name      string
	res, base job.Result
}

// replayStream re-runs a stream op's simulations as direct job.Simulate
// calls in the executor's order, one span per call, and returns each
// policy's results and the time spent in the calls. With a non-nil
// acc it records each call's milliseconds under its span name.
func replayStream(ctx context.Context, tr *tracer, op, parent int, c streamCase, acc *layerAcc) ([]policyRun, time.Duration, error) {
	var (
		runs []policyRun
		sims time.Duration
	)
	simulate := func(name string, pol job.Policy, opts job.Options) (job.Result, error) {
		id := tr.begin(op, parent, name)
		t0 := time.Now()
		r, err := job.Simulate(ctx, c.cl, c.model, c.jobs, pol, opts)
		d := time.Since(t0)
		tr.end(id)
		sims += d
		if acc != nil {
			acc.add(name, ms2(d))
		}
		return r, err
	}
	for _, name := range c.rs.Policies {
		pol, err := job.GetPolicy(name)
		if err != nil {
			return nil, 0, err
		}
		run := policyRun{name: name}
		if c.churn {
			if run.base, err = simulate("job.undisturbed_ms."+name, pol, c.plain); err != nil {
				return nil, 0, err
			}
		}
		if run.res, err = simulate("job.simulate_ms."+name, pol, c.faulted); err != nil {
			return nil, 0, err
		}
		runs = append(runs, run)
	}
	return runs, sims, nil
}

// checkReplay compares replayed results with the op's rendered text
// output. Each policy's row of the policy-comparison table must read
// the replay's makespan and utilization (and, on a faulted stream, the
// undisturbed makespan and the retried, recovered and failed counts),
// and on a faulted stream the policy's per-tenant done, rejected, shed
// and failed columns must sum to the replay's counts.
func checkReplay(out []byte, c streamCase, runs []policyRun) error {
	var rows [][]string
	for _, line := range strings.Split(string(out), "\n") {
		rows = append(rows, strings.Fields(line))
	}
	hasRow := func(want []string) bool {
		for _, f := range rows {
			if len(f) > len(want) && slices.Equal(f[:len(want)], want) {
				return true
			}
		}
		return false
	}
	for _, r := range runs {
		want := []string{r.name, fmt.Sprintf("%.1f", r.res.MakespanMS)}
		if c.churn {
			want = append(want, fmt.Sprintf("%.1f", r.base.MakespanMS))
		}
		want = append(want, fmt.Sprintf("%.4f", r.res.Utilization))
		if c.churn {
			want = append(want, fmt.Sprint(r.res.Retried), fmt.Sprint(r.res.Recovered), fmt.Sprint(r.res.Failed))
		}
		if !hasRow(want) {
			return fmt.Errorf("replay of %s: no output row %q", r.name, strings.Join(want, " "))
		}
		if !c.churn {
			continue
		}
		// Per-tenant rows: Policy Tenant Jobs Done Rej Shed Fail Starv E_s E_s Retention.
		var sums [4]int
		for _, f := range rows {
			if len(f) != 11 || f[0] != r.name {
				continue
			}
			for k := range sums {
				n, err := strconv.Atoi(f[3+k])
				if err != nil {
					return fmt.Errorf("replay of %s: tenant row %q: %w", r.name, strings.Join(f, " "), err)
				}
				sums[k] += n
			}
		}
		if want := [4]int{r.res.Completed, r.res.Rejected, r.res.Shed, r.res.Failed}; sums != want {
			return fmt.Errorf("replay of %s: tenant rows count done/rejected/shed/failed %v, the replay %v", r.name, sums, want)
		}
	}
	return nil
}

// coverageGuard checks that a stream op exercises the job layer the way
// its workload was chosen to: a faulted stream recovers and rejects
// under every policy, a fault-free one does neither.
func coverageGuard(c streamCase, runs []policyRun) error {
	for _, r := range runs {
		if c.churn && (r.res.Recovered == 0 || r.res.Rejected == 0) {
			return fmt.Errorf("%s: %d recovered, %d rejected; both must be > 0", r.name, r.res.Recovered, r.res.Rejected)
		}
		if !c.churn && (r.res.Recovered != 0 || r.res.Rejected != 0) {
			return fmt.Errorf("%s: %d recovered, %d rejected; both must be 0", r.name, r.res.Recovered, r.res.Rejected)
		}
	}
	return nil
}

// traceStream replays a traced stream op, checks the replay against the
// op's output and records the job-layer metrics of the op. It reports
// whether the replay matched.
func traceStream(ctx context.Context, tr *tracer, op, parent int, rs spec.RunSpec, out []byte, opWall time.Duration, acc *layerAcc) (bool, error) {
	c, err := newStreamCase(rs)
	if err != nil {
		return false, err
	}
	runs, sims, err := replayStream(ctx, tr, op, parent, c, acc)
	if err != nil {
		return false, err
	}
	matched := true
	if err := checkReplay(out, c, runs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", op, err)
		matched = false
	}
	var (
		perCall, submitted int
		shared             = map[string]bool{}
		total              job.Result
	)
	place := func(r job.Result) {
		call := map[string]bool{}
		for _, jr := range r.Jobs {
			if jr.Ranks != nil {
				k := fmt.Sprint(jr.Workload, "/", jr.N, "/", jr.Ranks)
				call[k] = true
				shared[k] = true
			}
		}
		perCall += len(call)
	}
	for _, r := range runs {
		if c.churn {
			place(r.base)
		}
		place(r.res)
		submitted += len(r.res.Jobs)
		total.Completed += r.res.Completed
		total.Rejected += r.res.Rejected
		total.Shed += r.res.Shed
		total.Failed += r.res.Failed
		total.Recovered += r.res.Recovered
		total.Retried += r.res.Retried
	}
	acc.add("experiments.render_ms", ms2(opWall-sims))
	acc.add("job.placements", float64(perCall))
	acc.add("job.placements_shared", float64(len(shared)))
	acc.add("job.completed", float64(total.Completed))
	acc.add("job.rejected", float64(total.Rejected))
	acc.add("job.shed", float64(total.Shed))
	acc.add("job.failed", float64(total.Failed))
	acc.add("job.recovered", float64(total.Recovered))
	acc.add("job.retried", float64(total.Retried))
	acc.add("job.completed_ratio", ratio(int64(total.Completed), int64(submitted)))
	return matched, nil
}

// breakdownIDs are the quick suite's experiments reported on their own;
// the rest are summed into experiments.other_s.
var breakdownIDs = []string{
	"compare", "homog", "ckpt-interval", "ablate-dist",
	"ablate-collectives", "recovered-sweep", "jobstream-faults",
}

// experimentBreakdown regenerates the quick suite once at Jobs=1 and
// reports each experiment's wall seconds from the executor's hooks.
// Jobs=1 runs them in registry order, which fixes what the shared memo
// has already computed when each one starts. It reports whether the
// output matched its recorded digest.
func experimentBreakdown(ctx context.Context, tr *tracer, rs spec.RunSpec, want string, layers map[string]float64) (bool, error) {
	const op = -1
	span := tr.begin(op, 0, "experiments.serial")
	out, _, err := runCold(ctx, rs, tr.experimentHooks(op, span), 1)
	tr.end(span)
	ok := outputOK(out, err, want, "serial regeneration")
	named := map[string]bool{}
	for _, id := range breakdownIDs {
		named["experiment."+id] = true
		layers["experiments."+id+"_s"] = tr.total(op, "experiment."+id).Seconds()
	}
	var other time.Duration
	for _, s := range tr.spansOf(op) {
		if s.Parent == span && !named[s.Name] {
			other += s.dur()
		}
	}
	layers["experiments.other_s"] = other.Seconds()
	return ok, nil
}

func ms2(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
