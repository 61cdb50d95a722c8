package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/experiments"
)

// op is one unit of generated input: a seeded simulation run, or one
// request to the service layer.
type op struct {
	Kind  string // run; for service requests also dup (a repeated query) and bad
	App   string
	Nodes int
	Modes []string
	Seed  int64
	BG    bool   // the paper's production background (75%); false = idle machine
	Body  []byte // service request body
}

// Valid reports whether the op is a query the service must answer (not a
// malformed body).
func (o op) Valid() bool { return o.Kind != "bad" }

// body renders a valid op as a service query.
func (o op) body() []byte {
	modes := ""
	for i, m := range o.Modes {
		if i > 0 {
			modes += ","
		}
		modes += fmt.Sprintf("%q", m)
	}
	bg := `,"background":{"utilization":0}`
	if o.BG {
		bg = ""
	}
	return []byte(fmt.Sprintf(`{"topology":"theta-mini","app":%q,"nodes":%d,"modes":[%s],"runs":1,"seed":%d%s}`,
		o.App, o.Nodes, modes, o.Seed, bg))
}

// workload is one benchmark input family: seeded simulations run
// in-process through experiments.Profile.SamplesOn.
type workload struct {
	Name    string
	Profile experiments.Profile
	// LimitMS is the p90 latency limit max_rate_qps is judged against.
	LimitMS float64
	// Ladder is the fixed set of rates max_rate_qps is chosen from.
	Ladder ladder
	// Canary is a fixed input, independent of --seed, whose output digest
	// is recorded; every run checks it.
	Canary op
	plan   func(rng *rand.Rand, seconds int) []op
}

// Plan sizes for the batch workloads: the runs per second two workers
// sustain on the 2-CPU reference host, so a plan of --seconds × rate runs
// measures for about --seconds.
const (
	prodRate = 3.4
	isoRate  = 7.0
)

const (
	nameProd = "prod-campaign"
	nameIso  = "iso-smallmsg"
)

// maxRate returns the highest ladder rung at which the plan's runs,
// arriving open-loop at the rung's rate at the two workers, would keep p90
// within the limit with no growing backlog; -1 when no rung does. It is
// derived from the measured per-run durations by a FIFO replay, not
// measured by offering load: live rungs near saturation flipped by several
// rungs between runs of one seed on a small shared host. With limits far
// above p90 the answer is a capacity figure close to runs_per_s.
func (w *workload) maxRate(ops []op, service []time.Duration) int {
	return w.Ladder.highestPassing(func(i int) bool {
		recs := fifoReplay(service, dueTimes(ops, w.Ladder.rate(i)), workers)
		return summarize(recs, w.LimitMS).pass(w.LimitMS)
	})
}

// workloads returns the benchmark's workloads by name.
func workloads() map[string]*workload {
	bench := experiments.Bench()

	iso := experiments.Bench()
	// MILC at a tiny halo scale for many iterations: thousands of small
	// messages, each a coroutine handoff, on a shallow network queue.
	// Qbox's alltoallv adds the collective path at a similar run cost, as
	// every third run, so that p50 and p90 fall inside the MILC runs or
	// the Qbox runs rather than on the edge between them.
	iso.Iterations = map[string]int{"MILC": 24, "Qbox": 24}
	iso.Scale = map[string]float64{"MILC": 0.01, "Qbox": 0.02}

	return map[string]*workload{
		nameProd: {
			Name:    nameProd,
			Profile: bench,
			LimitMS: 1500,
			Ladder:  ladder{Base: 1, Ratio: 1.03, Rungs: 96},
			Canary:  op{Kind: "run", App: "MILC", Nodes: bench.NodesLarge, Modes: []string{"AD0"}, Seed: 1, BG: true},
			plan: func(rng *rand.Rand, seconds int) []op {
				return runPlan(rng, seconds, prodRate, func(i int, seed int64) op {
					return op{Kind: "run", App: "MILC", Nodes: bench.NodesLarge,
						Modes: []string{[]string{"AD0", "AD3"}[i%2]}, Seed: seed, BG: true}
				})
			},
		},
		nameIso: {
			Name:    nameIso,
			Profile: iso,
			LimitMS: 800,
			Ladder:  ladder{Base: 2, Ratio: 1.03, Rungs: 96},
			Canary:  op{Kind: "run", App: "MILC", Nodes: 64, Modes: []string{"AD0"}, Seed: 1},
			plan: func(rng *rand.Rand, seconds int) []op {
				return runPlan(rng, seconds, isoRate, func(i int, seed int64) op {
					o := op{Kind: "run", App: "MILC", Nodes: 64, Seed: seed,
						Modes: []string{[]string{"AD0", "AD3"}[i%2]}}
					if i%3 == 2 {
						o.App, o.Nodes = "Qbox", 32
					}
					return o
				})
			},
		},
	}
}

// runPlan builds ceil(seconds*rate) seeded runs, made even so the two
// routing modes get equal shares. Seeds are consecutive from a base drawn
// from rng, the way a researcher replays a campaign; each run has its own
// seed, since per-seed run cost varies widely (background job mix and
// placement spread) and distinct seeds average that out fastest.
func runPlan(rng *rand.Rand, seconds int, rate float64, mk func(i int, seed int64) op) []op {
	n := int(math.Ceil(float64(seconds) * rate))
	n += n % 2
	base := 100 + rng.Int63n(1<<20)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = mk(i, base+int64(i))
	}
	return ops
}

// badBodies are malformed or out-of-range requests the service must
// refuse with 400 before simulating anything.
var badBodies = []string{
	`{"app":"MILC","nodes":16`,
	`{"app":"MILC","nodes":16,"color":"blue"}`,
	`{"app":"MILC","nodes":16,"seed":-3}`,
	`{"app":"MILC","nodes":999999}`,
	`{"app":"NOPE","nodes":16}`,
	`{"app":"MILC","nodes":16,"modes":["AD9"]}`,
}

// serviceOps turns runs into service requests: each run as a query, a
// back-to-back duplicate of the first (it shares the first's due time, so
// it takes the coalescing path) and one malformed body, chosen by seed,
// that the service must refuse with 400.
func serviceOps(runs []op, seed int64) []op {
	var ops []op
	for i, r := range runs {
		r.Body = r.body()
		ops = append(ops, r)
		if i == 0 {
			d := r
			d.Kind = "dup"
			bad := op{Kind: "bad", Body: []byte(badBodies[uint64(seed)%uint64(len(badBodies))])}
			ops = append(ops, d, bad)
		}
	}
	return ops
}
