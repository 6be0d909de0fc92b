package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/runner"
	"repro/internal/spec"
)

// A bench is one workload: one set of inputs the benchmark runs. Each
// op is a cold RunSpec on a fresh memory-only Executor. README.md
// records why each one exists.
type bench struct {
	name string
	// seqLen is the length of the fixed op sequence. A run replays a
	// window of it, so no spec repeats within a run, and runs with any
	// seed draw their ops from the same sequence.
	seqLen int
	// spec builds op i of the sequence; i = warmupOp is the untimed
	// warm-up, whose seed lies outside the sequence.
	spec func(i int) spec.RunSpec
	// refReps is how many reps of the reference kernel run between two
	// ops, 5-10% of an op's CPU time; 0 leaves the CPU times unscaled.
	// paper-quick is not scaled: its process keeps a large heap, and
	// beside it the kernel's time spread three times as wide as the
	// op's own (24% against 5% over ten runs), so scaling widened the
	// spread instead of cancelling the host's drift.
	refReps int
}

const warmupOp = -1

// Stream sizing: the default three-tenant mix scaled to 1,100 jobs. The
// churn variant compresses arrival gaps so the queue fills and admission
// rejects, and draws seeded node outages over the stream's span so
// leases heal and replay.
const (
	streamScale   = 100
	churnGapDiv   = 3
	churnFailures = 40
	churnUpMS     = 2250
	churnDownMS   = 500
	churnMaxQueue = 1
	churnMaxWait  = 1000
)

var workloads = []bench{
	{
		name:    "paper-quick",
		seqLen:  32,
		refReps: 0,
		spec: func(i int) spec.RunSpec {
			return spec.RunSpec{Kind: spec.KindExperiments, Experiments: "all", Quick: true, Seed: opSeed(i)}
		},
	},
	{
		name:    "stream-steady",
		seqLen:  128,
		refReps: 10,
		spec: func(i int) spec.RunSpec {
			return spec.RunSpec{Kind: spec.KindJobstream, Stream: scaledStream(opSeed(i), 1)}
		},
	},
	{
		name:    "stream-churn",
		seqLen:  48,
		refReps: 40,
		spec: func(i int) spec.RunSpec {
			st := scaledStream(opSeed(i), churnGapDiv)
			return spec.RunSpec{
				Kind:       spec.KindJobstream,
				Stream:     st,
				NodeFaults: &cluster.HealthSpec{Seed: st.Seed, Failures: churnFailures, MeanUpMS: churnUpMS, MeanDownMS: churnDownMS},
				Admission:  &job.AdmissionSpec{MaxQueue: churnMaxQueue, MaxWaitMS: churnMaxWait},
			}
		},
	},
}

// opSeed is the input seed of sequence op i: 1..seqLen for timed ops,
// 0 for the warm-up. On paper-quick it is the RunSpec seed, which
// drives the quick suite's synthetic inputs (0 is the spec default); on
// the stream workloads it is the stream seed, which draws the arrival
// sequence, and on stream-churn the outage draws too. Every other
// RunSpec field keeps its default.
func opSeed(i int) int64 {
	if i == warmupOp {
		return 0
	}
	return int64(i + 1)
}

// scaledStream is the default stream with the given seed, every
// tenant's job count scaled by streamScale and its mean gap divided by
// gapDiv.
func scaledStream(seed int64, gapDiv float64) *job.StreamSpec {
	s := job.DefaultStream()
	s.Seed = seed
	for i := range s.Tenants {
		s.Tenants[i].Jobs *= streamScale
		s.Tenants[i].MeanGapMS /= gapDiv
	}
	return &s
}

func lookupWorkload(name string) (bench, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return bench{}, fmt.Errorf("unknown workload %q (one of %v)", name, names)
}

// window maps a run's seed to the sequence positions it replays: a
// contiguous run of distinct positions starting at seed mod seqLen.
func (w bench) window(seed int64) []int {
	start := int(seed % int64(w.seqLen))
	if start < 0 {
		start += w.seqLen
	}
	idx := make([]int, w.seqLen)
	for j := range idx {
		idx[j] = (start + j) % w.seqLen
	}
	return idx
}

// runCold executes rs on a fresh memory-only executor, so nothing an
// earlier op computed can serve it, and returns the output bytes and
// the executor's memo counters.
func runCold(ctx context.Context, rs spec.RunSpec, hooks runner.Hooks, jobs int) ([]byte, runner.Stats, error) {
	ex, err := spec.NewExecutor(spec.ExecutorOptions{Hooks: hooks, Jobs: jobs})
	if err != nil {
		return nil, runner.Stats{}, err
	}
	var out bytes.Buffer
	if err := ex.Run(ctx, rs, &out); err != nil {
		return nil, runner.Stats{}, err
	}
	return out.Bytes(), ex.CacheStats(), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
