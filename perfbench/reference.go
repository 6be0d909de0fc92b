package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
)

// The host's speed changes under the benchmark. On a shared virtual
// machine other tenants load the host's cores, caches and memory, and
// the CPU time of this simulator's ops follows: on the 2-vCPU
// development VM, sets of ten runs of identical code read
// stream-steady's median CPU time per op at 238 ms in one half hour and
// 146 ms in the next. The reference kernel is a fixed piece of ordinary
// Go — decode a JSON document of job records, sort them, render them as
// a text table, total them per tenant in a map and encode them again —
// that the benchmark runs before, between and after the timed ops. Its
// CPU time rises and falls with the host's speed at that moment, so
// cpu_ms_per_op is scaled by it on the workloads that run it (refReps
// in workloads.go): an op's measured CPU time ×
// refNominalMS ÷ the kernel's CPU time per rep measured next to it,
// i.e. the CPU time the op would take on a host where one rep costs
// refNominalMS. It cancels much of the host's drift, not all of it:
// the kernel and the simulator do not slow down in the same proportion.
// Standard-library code with many small allocations, like the
// simulator's, followed the ops more closely than a tight
// pointer-chasing loop did.
//
// The kernel lives in the benchmark and uses only the standard library,
// so no change to the program alters it.

// refNominalMS is the reference kernel's CPU time per rep on the
// development VM (Intel Xeon, 2 vCPUs, Go 1.24, GOMAXPROCS=1), the
// speed cpu_ms_per_op is expressed at.
const refNominalMS = 2.0

// refRecords is how many job records the kernel's document holds.
const refRecords = 400

type refRecord struct {
	Name   string             `json:"name"`
	Tenant string             `json:"tenant"`
	N      int                `json:"n"`
	Es     float64            `json:"es"`
	RespMS float64            `json:"respMS"`
	Tags   map[string]float64 `json:"tags"`
}

var (
	refDoc  []byte
	refSink int
)

// buildRefDoc builds the kernel's fixed input once, and runs one
// untimed rep so the library's per-type caches are filled before any
// rep is timed.
func buildRefDoc() {
	if refDoc == nil {
		recs := make([]refRecord, refRecords)
		for i := range recs {
			recs[i] = refRecord{
				Name:   fmt.Sprintf("job-%d", i),
				Tenant: []string{"atlas", "borealis", "cygnus"}[i%3],
				N:      32 + i%64,
				Es:     float64(i%97) / 97,
				RespMS: float64(i*7919%1000) / 3,
				Tags:   map[string]float64{"width": float64(4 + i%3), "priority": float64(i % 5), "gap": 1.5},
			}
		}
		var err error
		if refDoc, err = json.Marshal(recs); err != nil {
			panic(err)
		}
		refRep()
	}
}

// refRep is one rep of the reference kernel.
func refRep() {
	var recs []refRecord
	if err := json.Unmarshal(refDoc, &recs); err != nil {
		panic(err)
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].RespMS < recs[b].RespMS })
	var table strings.Builder
	perTenant := map[string]float64{}
	for _, r := range recs {
		fmt.Fprintf(&table, "%-10s %-9s %4d %.4f %10.1f\n", r.Name, r.Tenant, r.N, r.Es, r.RespMS)
		perTenant[r.Tenant] += r.Es
	}
	out, err := json.Marshal(recs)
	if err != nil {
		panic(err)
	}
	refSink += table.Len() + len(out) + len(perTenant)
}

// referenceMS runs the reference kernel reps times, after a full
// collection so it starts from the same heap state every time and no
// collector work of the program runs on its time, and returns its CPU
// milliseconds per rep.
func referenceMS(reps int) float64 {
	buildRefDoc()
	runtime.GC()
	c0 := cpuTime()
	for i := 0; i < reps; i++ {
		refRep()
	}
	return ms2(cpuTime()-c0) / float64(reps)
}
