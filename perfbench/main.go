// Command perfbench is the repository's benchmark. It measures the path
// from a RunSpec to output bytes on three workloads, each entering the
// program where the CLI does (spec.Executor.Run), probes every layer on
// that path down from the HTTP front-end in traced runs, and checks
// every timed op's output against digests recorded at the commit that
// introduced the benchmark.
//
//	go build -o .bench_build/perfbench ./perfbench
//	.bench_build/perfbench -workload paper-quick -seed 1 -seconds 30 -trace 0
//
// perfbench/run.py wraps the build and takes the same flags with two
// dashes. With -trace 0 the last stdout line carries the end-to-end
// metrics; with -trace 1 it carries the per-layer metrics of a traced
// replay. Each measurement runs in a child process of its own, so a
// workload never shares a heap, a cache or a page-fault history with
// another. See README.md for what each workload and metric is for.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupSamples is how many processes each untraced run sets up: the
// median of their set-up times is setup_s.
const setupSamples = 3

// childGOMAXPROCS is the GOMAXPROCS of every measurement process. With
// one P the runtime never runs idle-priority GC workers on a spare P,
// whose CPU time depends on what else the host runs; with two, CPU per
// op read a third above wall time per op and swung with it.
const childGOMAXPROCS = 1

// minOps is the fewest timed ops a batch run makes, however long they
// take, so its medians always rest on several samples.
const minOps = 5

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics in report order with their
// units. They are the ones that repeat on a shared virtual machine,
// where the host steals CPU in bursts and its speed drifts: CPU times,
// scaled to the nominal host speed on the workloads that run the
// reference kernel (reference.go), and allocation.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
}

// ungated are measured alongside, printed with every run and reported by
// traced runs, but move by tens of percent between runs of identical
// code there: wall times (set-up from process start, the median and
// nearest-rank p99 op time), the peak resident set, which follows GC
// timing, and the unscaled CPU times. ref.rep_ms, the reference
// kernel's median CPU time per rep, shows how fast the host ran.
var ungated = []metricDef{
	{"wall.setup_s", "s"},
	{"wall.op_ms", "ms"},
	{"wall.p99_ms", "ms"},
	{"mem.peak_rss_mb", "MB"},
	{"raw.setup_s", "s"},
	{"raw.cpu_ms_per_op", "ms"},
	{"ref.rep_ms", "ms"},
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	// child runs one measurement process: "setup" stops once set up,
	// "measure" goes on to the timed ops.
	child  string
	traced bool
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run, or all to run each in turn")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: picks the window of the op sequence a run replays")
	fs.Float64Var(&o.seconds, "seconds", 30, "seconds of timed ops per run")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	fs.StringVar(&o.child, "child", "", "internal: run one measurement process (setup or measure)")
	fs.BoolVar(&o.traced, "traced", false, "internal: record spans in the child")
	writeGolden := fs.String("write-golden", "", "regenerate the output digests into this file and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *writeGolden != "" {
		return regenerateGolden(*writeGolden, stderr)
	}
	if !(o.seconds > 0) {
		return fmt.Errorf("-seconds must be positive")
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if o.workload == "all" && o.child == "" {
		for _, w := range workloads {
			o.workload = w.name
			if err := orchestrate(w, o, stdout, stderr); err != nil {
				return err
			}
		}
		return nil
	}
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.child != "" {
		res, err := runChild(context.Background(), w, o)
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(res)
	}
	return orchestrate(w, o, stdout, stderr)
}

// childResult is what a measurement process reports to its parent.
type childResult struct {
	// ReadyUnixNano is the wall clock when set-up ended and the first
	// timed op was about to start; the parent turns it into wall.setup_s.
	ReadyUnixNano int64              `json:"readyUnixNano"`
	Attempted     int                `json:"attempted"`
	Failed        int                `json:"failed"`
	Metrics       map[string]float64 `json:"metrics"`
	Layers        map[string]float64 `json:"layers,omitempty"`
}

// ready ends set-up: it stamps the wall clock and records the CPU the
// process has used so far as raw.setup_s.
func (r *childResult) ready() {
	r.ReadyUnixNano = time.Now().UnixNano()
	r.Metrics["raw.setup_s"] = cpuTime().Seconds()
}

// scaledSetup is set-up CPU seconds at the nominal host speed, given
// the measuring process's median reference kernel time (0 on a
// workload that does not run the kernel, whose set-up stays unscaled).
func scaledSetup(rawS, refMS float64) float64 {
	if refMS == 0 {
		return rawS
	}
	return rawS * refNominalMS / refMS
}

// spawn runs one child process of this binary and decodes its report.
// Its wall set-up time runs from just before the process starts to the
// ready stamp the child takes just before its first timed op.
func spawn(o options, phase string, traced bool, seconds float64) (childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	args := []string{
		"-workload", o.workload,
		"-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(seconds),
		"-child", phase,
	}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", childGOMAXPROCS))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("%s child: %w", phase, err)
	}
	var res childResult
	if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
		return childResult{}, fmt.Errorf("%s child report: %w", phase, err)
	}
	res.Metrics["wall.setup_s"] = float64(res.ReadyUnixNano-start.UnixNano()) / 1e9
	return res, nil
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// orchestrate runs the child processes of one benchmark run and prints
// the host stamp, a readable table on stderr and the result as the last
// stdout line.
func orchestrate(w bench, o options, stdout, stderr io.Writer) error {
	var res result
	res.Metrics = map[string]metric{}
	extra := map[string]metric{}
	stamp := hostStamp(w, o)
	if o.trace == 0 {
		// Set-up is sampled in every process; the other metrics come
		// from the last one, which goes on to the timed ops. The set-up
		// processes run just before it, so its kernel time scales
		// their set-up too.
		var children []childResult
		for i := 0; i < setupSamples; i++ {
			phase := "setup"
			if i == setupSamples-1 {
				phase = "measure"
			}
			c, err := spawn(o, phase, false, o.seconds)
			if err != nil {
				return err
			}
			children = append(children, c)
			res.Attempted += c.Attempted
			res.Failed += c.Failed
		}
		m := children[len(children)-1].Metrics
		for _, key := range []string{"raw.setup_s", "wall.setup_s"} {
			var xs []float64
			for _, c := range children {
				xs = append(xs, c.Metrics[key])
			}
			m[key] = median(xs)
		}
		m["setup_s"] = scaledSetup(m["raw.setup_s"], m["ref.rep_ms"])
		for _, e := range endToEnd {
			res.Metrics[e.name] = metric{m[e.name], e.unit}
		}
		for _, e := range ungated {
			extra[e.name] = metric{m[e.name], e.unit}
		}
	} else {
		// Half the run untraced, half traced: the difference between the
		// two children is the tracing overhead.
		plain, err := spawn(o, "measure", false, o.seconds/2)
		if err != nil {
			return err
		}
		traced, err := spawn(o, "measure", true, o.seconds/2)
		if err != nil {
			return err
		}
		for _, e := range endToEnd {
			traced.Layers["trace.overhead."+e.name] = traced.Metrics[e.name] - plain.Metrics[e.name]
		}
		for _, e := range ungated {
			traced.Layers["trace.overhead."+e.name] = traced.Metrics[e.name] - plain.Metrics[e.name]
			traced.Layers[e.name] = plain.Metrics[e.name]
		}
		res.Attempted = plain.Attempted + traced.Attempted
		res.Failed = plain.Failed + traced.Failed
		for _, l := range perLayer {
			v, ok := traced.Layers[l.name]
			if !ok {
				return fmt.Errorf("traced run did not report %s", l.name)
			}
			res.Metrics[l.name] = metric{v, l.unit}
		}
	}
	res.Correct = res.Failed == 0
	printTable(stderr, w, o, stamp, res, extra)
	stampJSON, err := json.Marshal(stamp)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host %s\n", stampJSON)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func printTable(wr io.Writer, w bench, o options, stamp map[string]string, res result, extra map[string]metric) {
	fmt.Fprintf(wr, "perfbench %s seed %d, %g s, trace %d\n", w.name, o.seed, o.seconds, o.trace)
	keys := make([]string, 0, len(stamp))
	for k := range stamp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(wr, "  %-18s %s\n", k, stamp[k])
	}
	fmt.Fprintf(wr, "  %-18s %d of %d (fail_ratio %.4f)\n", "failed ops", res.Failed, res.Attempted,
		float64(res.Failed)/float64(max(res.Attempted, 1)))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(wr, "  %-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, e := range ungated {
		if m, ok := extra[e.name]; ok {
			fmt.Fprintf(wr, "  %-36s %14.4f %s (not gated)\n", e.name, m.Value, m.Unit)
		}
	}
}

// runChild is one measurement process: set up, then (unless only
// set-up is sampled) the timed ops of the workload.
func runChild(ctx context.Context, w bench, o options) (childResult, error) {
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	res, err := batchChild(ctx, w, o, tr)
	if err != nil {
		return res, err
	}
	if tr != nil {
		if err := layerProbes(ctx, tr, &res); err != nil {
			return res, err
		}
		if err := tr.write(fmt.Sprintf(".bench_build/trace/%s-seed%d.json", w.name, o.seed)); err != nil {
			return res, err
		}
	}
	return res, nil
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// cpuTime is the user plus system CPU time the process has used, all
// threads included. Time the host steals from the virtual CPU does not
// count, so it is steadier than wall time on a shared machine.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(len(s))*p/100)) - 1
	return s[min(max(rank, 0), len(s)-1)]
}
