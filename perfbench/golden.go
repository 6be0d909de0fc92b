package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/runner"
	"repro/internal/spec"
)

// golden.json holds the SHA-256 of every op's output, recorded by
// `perfbench -write-golden perfbench/golden.json` at the commit that
// introduced the benchmark. A change that alters any output byte shows
// up as failed ops until the digests are deliberately regenerated.
//
//go:embed golden.json
var goldenJSON []byte

// goldenSet is one workload's recorded digests, the warm-up and each
// sequence op, or under hotSetKey those of the HTTP probe's hot specs.
type goldenSet struct {
	Warmup string            `json:"warmup,omitempty"`
	Ops    []string          `json:"ops,omitempty"`
	Hot    map[string]string `json:"hot,omitempty"`
}

const hotSetKey = "hot-set"

func loadGolden() (map[string]goldenSet, error) {
	var all map[string]goldenSet
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return all, nil
}

func goldenFor(name string) (goldenSet, error) {
	all, err := loadGolden()
	if err != nil {
		return goldenSet{}, err
	}
	g := all[name]
	w, err := lookupWorkload(name)
	if err != nil {
		return goldenSet{}, err
	}
	if len(g.Ops) != w.seqLen {
		return goldenSet{}, fmt.Errorf("golden.json: %s has %d op digests, the sequence has %d", name, len(g.Ops), w.seqLen)
	}
	return g, nil
}

// regenerateGolden runs every op of every workload and every hot spec
// once, cold, and writes the digests of their outputs to path. Every
// stream op is also replayed: its output must agree with the replay and
// pass its workload's layer-coverage guard.
func regenerateGolden(path string, log io.Writer) error {
	ctx := context.Background()
	all := map[string]goldenSet{}
	for _, w := range workloads {
		var g goldenSet
		for i := warmupOp; i < w.seqLen; i++ {
			out, _, err := runCold(ctx, w.spec(i), runner.Hooks{}, 0)
			if err != nil {
				return fmt.Errorf("%s op %d: %w", w.name, i, err)
			}
			if err := checkStreamOp(ctx, w.spec(i), out); err != nil {
				return fmt.Errorf("%s op %d: %w", w.name, i, err)
			}
			if i == warmupOp {
				g.Warmup = digest(out)
			} else {
				g.Ops = append(g.Ops, digest(out))
			}
		}
		fmt.Fprintf(log, "perfbench: recorded %s\n", w.name)
		all[w.name] = g
	}
	hot, err := hotSet()
	if err != nil {
		return err
	}
	g := goldenSet{Hot: map[string]string{}}
	for _, h := range hot {
		out, _, err := runCold(ctx, h.raw, runner.Hooks{}, 0)
		if err != nil {
			return fmt.Errorf("hot spec %s: %w", h.name, err)
		}
		g.Hot[h.name] = digest(out)
	}
	all[hotSetKey] = g
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkStreamOp replays a stream op, checks the replay against the op's
// output and applies the coverage guard. Other ops pass unchecked.
func checkStreamOp(ctx context.Context, rs spec.RunSpec, out []byte) error {
	if rs.Kind != spec.KindJobstream {
		return nil
	}
	c, err := newStreamCase(rs)
	if err != nil {
		return err
	}
	runs, _, err := replayStream(ctx, nil, 0, 0, c, nil)
	if err != nil {
		return err
	}
	if err := checkReplay(out, c, runs); err != nil {
		return err
	}
	return coverageGuard(c, runs)
}
