package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/runner"
)

// Seed discipline: a seed expands deterministically into a window of
// the workload's fixed op sequence; no spec repeats within a window, so
// no cache shared across executors can turn a timed op into a hit; and
// the warm-up spec lies outside the sequence. The recorded outputs
// differ from op to op too, so the ops are different work, not one
// computation under different keys.
func TestSeedDiscipline(t *testing.T) {
	for _, w := range workloads {
		keys := map[string]int{}
		for i := 0; i < w.seqLen; i++ {
			k, err := w.spec(i).Key()
			if err != nil {
				t.Fatalf("%s op %d: %v", w.name, i, err)
			}
			if prev, dup := keys[k]; dup {
				t.Fatalf("%s: ops %d and %d are the same spec", w.name, prev, i)
			}
			keys[k] = i
		}
		warm, err := w.spec(warmupOp).Key()
		if err != nil {
			t.Fatal(err)
		}
		if i, in := keys[warm]; in {
			t.Fatalf("%s: the warm-up spec is sequence op %d", w.name, i)
		}
		for _, seed := range []int64{0, 1, 7, -3, 1 << 40} {
			win := w.window(seed)
			again := w.window(seed)
			seen := map[int]bool{}
			for j, i := range win {
				if again[j] != i {
					t.Fatalf("%s seed %d: window not deterministic", w.name, seed)
				}
				if seen[i] {
					t.Fatalf("%s seed %d: position %d repeats", w.name, seed, i)
				}
				seen[i] = true
			}
			if len(seen) != w.seqLen {
				t.Fatalf("%s seed %d: window covers %d of %d ops", w.name, seed, len(seen), w.seqLen)
			}
			if next := w.window(seed + 1); next[0] != (win[0]+1)%w.seqLen {
				t.Fatalf("%s: seeds %d and %d start at %d and %d", w.name, seed, seed+1, win[0], next[0])
			}
		}
		g, err := goldenFor(w.name)
		if err != nil {
			t.Fatal(err)
		}
		outputs := map[string]int{g.Warmup: warmupOp}
		for i, d := range g.Ops {
			if prev, dup := outputs[d]; dup {
				t.Errorf("%s: ops %d and %d recorded the same output", w.name, prev, i)
			}
			outputs[d] = i
		}
	}
	gold, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	hot, err := hotSet()
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hot {
		if gold[hotSetKey].Hot[h.name] == "" {
			t.Errorf("no recorded digest for hot spec %s", h.name)
		}
	}
}

// BENCHMARK.json at the repository root must list exactly the metrics
// the harness reports, with the same units.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit string
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, file []entry, harness []metricDef) {
		if len(file) != len(harness) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(file), len(harness))
		}
		for i, m := range file {
			if m.Name != harness[i].name || m.Unit != harness[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], harness %s [%s]", kind, i, m.Name, m.Unit, harness[i].name, harness[i].unit)
			}
			if !name.MatchString(m.Name) {
				t.Errorf("%s: malformed metric name %q", kind, m.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// Layer coverage: each stream workload must keep exercising the job
// layer the way it was chosen to (churn heals leases and rejects under
// every policy, steady does neither), and a direct replay of an op must
// agree with the op's output. Sampled here on the warm-up and the first
// and last ops; regenerating golden.json checks every op.
func TestStreamCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 1,100-job streams")
	}
	ctx := context.Background()
	for _, name := range []string{"stream-steady", "stream-churn"} {
		w, err := lookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		gold, err := goldenFor(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{warmupOp, 0, w.seqLen - 1} {
			rs := w.spec(i)
			out, _, err := runCold(ctx, rs, runner.Hooks{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := gold.Warmup
			if i != warmupOp {
				want = gold.Ops[i]
			}
			if got := digest(out); got != want {
				t.Errorf("%s op %d: digest %s, recorded %s", name, i, got, want)
			}
			if err := checkStreamOp(ctx, rs, out); err != nil {
				t.Errorf("%s op %d: %v", name, i, err)
			}
		}
	}
}

// Layer coverage: a cold quick-suite regeneration shares work through
// the runner memo.
func TestPaperQuickCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the quick suite")
	}
	w, err := lookupWorkload("paper-quick")
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := runCold(context.Background(), w.spec(0), runner.Hooks{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	gold, err := goldenFor(w.name)
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(out); got != gold.Ops[0] {
		t.Errorf("op 0 digest %s, recorded %s", got, gold.Ops[0])
	}
	if stats.Hits == 0 {
		t.Errorf("no memo hits in a cold regeneration (%d misses)", stats.Misses)
	}
}

// Layer coverage: the HTTP probe is served entirely from cache. How
// long a hot spec takes to serve depends on the host, so the probe
// prints the cheapest one's time rather than this test asserting it.
func TestServeCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a server cache with three quick suites")
	}
	s, failed, err := startWarmServer(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	if failed != 0 {
		t.Errorf("%d hot specs failed the output check", failed)
	}
	before := s.ex.CacheStats()
	for _, r := range s.closedLoop(1, time.Time{}, 2*len(s.hot), nil) {
		if r.failed != 0 {
			t.Errorf("%d of %d requests failed", r.failed, r.ops)
		}
	}
	after := s.ex.CacheStats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits == 0 || misses != 0 {
		t.Errorf("closed loop: %d memo hits, %d misses; want a hit ratio of 1", hits, misses)
	}
}
