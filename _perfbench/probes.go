package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mpi"
	"repro/internal/network"
	"repro/internal/placement"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// run is one seeded simulation run, the unit the probes replay.
type run struct {
	App   apps.App
	Nodes int
	Mode  routing.Mode
	Seed  int64
	BG    bool
}

// runsOf expands a valid op into its seeded runs (one per mode).
func runsOf(o op) ([]run, error) {
	app, err := apps.ByName(o.App)
	if err != nil {
		return nil, err
	}
	var rs []run
	for _, m := range o.Modes {
		mode, err := routing.ParseMode(m)
		if err != nil {
			return nil, err
		}
		rs = append(rs, run{App: app, Nodes: o.Nodes, Mode: mode, Seed: o.Seed, BG: o.BG})
	}
	return rs, nil
}

// jobSpec rebuilds the JobSpec a production campaign builds for one run:
// the profile's app scale and a seed-derived placement spread over
// 1..groups dragonfly groups. The spread's stream mirrors the campaign's
// per-seed stream; replay digests are compared against the campaign's,
// so any drift between the two shows up as a failed check.
func jobSpec(p experiments.Profile, r run, groups int) core.JobSpec {
	iters, ok := p.Iterations[r.App.Name()]
	if !ok {
		iters = 4
	}
	scale, ok := p.Scale[r.App.Name()]
	if !ok {
		scale = 0.1
	}
	spread := 1 + rand.New(rand.NewSource(r.Seed*31+7)).Intn(groups)
	return core.JobSpec{
		App:           r.App,
		Cfg:           apps.Config{Iterations: iters, Scale: scale, Seed: r.Seed},
		Nodes:         r.Nodes,
		Placement:     placement.Dispersed,
		ClusterGroups: spread,
		Env:           mpi.UniformEnv(r.Mode),
	}
}

// replay is what the probes measured for one run.
type replay struct {
	Digest     string // of the RunOne replay, comparable to the campaign's
	Host       time.Duration
	ReduceHost time.Duration
	Res        *core.RunResult
	MPIFrac    float64 // simulated MPI share of the job's rank time

	Stack    sim.KernelStats // hand-assembled stack, instrumented job alone
	MPICalls uint64

	Decisions   int
	LoadQueries int
}

// replayRunOne drives one run through core.Machine.RunOne with the spec
// the campaign builds, timing the run and the digest fold separately.
func replayRunOne(p experiments.Profile, m *core.Machine, r run, tr *tracer, parent int) (replay, error) {
	var bg *core.BackgroundSpec
	if r.BG {
		bg = core.DefaultBackground()
	}
	spec := jobSpec(p, r, m.Topo.Cfg.Groups)
	t0 := time.Now()
	job, res, err := m.RunOne(spec, core.RunOpts{Seed: r.Seed, Background: bg, Warmup: p.Warmup})
	t1 := time.Now()
	if err != nil {
		return replay{}, fmt.Errorf("RunOne %s seed %d: %w", r.App.Name(), r.Seed, err)
	}
	id := tr.add(span{Name: "core.Machine.RunOne", Cat: "core", Start: t0, End: t1, Parent: parent,
		Args: map[string]any{"app": r.App.Name(), "mode": r.Mode.String(), "seed": r.Seed, "events": res.EventsExecuted}})
	s := experiments.Sample{
		App: r.App.Name(), Mode: r.Mode, Seed: r.Seed, Nodes: r.Nodes, Groups: job.GroupsSpanned,
		RuntimeSec: job.Runtime.Seconds(), Reduced: job.Report.Reduce(),
		MinPkts: job.MinimalPkts, NonMinPkts: job.NonMinimalPkts,
		MeanTransitSec: job.MeanTransit.Seconds(),
		Events:         res.EventsExecuted, Packets: res.PacketsDelivered,
	}
	d := sampleDigest(s)
	t2 := time.Now()
	tr.add(span{Name: "autoperf.Report.Reduce+fold", Cat: "experiments", Start: t1, End: t2, Parent: parent,
		Args: map[string]any{"run": id}})
	mpiT, compT := s.Reduced.MPITime, s.Reduced.ComputeTime
	frac := 0.0
	if mpiT+compT > 0 {
		frac = float64(mpiT) / float64(mpiT+compT)
	}
	return replay{Digest: d, Host: t1.Sub(t0), ReduceHost: t2.Sub(t1), Res: res, MPIFrac: frac}, nil
}

// stack is a hand-assembled topology → kernel → fabric → MPI world for
// one run's instrumented job, on an otherwise idle machine (background
// noise is internal to core). Placement follows core's run-level stream,
// so an isolated run reproduces the campaign's job exactly.
type stack struct {
	k     *sim.Kernel
	fab   *network.Fabric
	topo  *topology.Topology
	world *mpi.World
}

func newStack(p experiments.Profile, r run) (*stack, error) {
	topo, err := topology.Build(p.Theta)
	if err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	fab := network.New(k, topo, network.DefaultParams(), routing.DefaultConfig(), r.Seed)
	spec := jobSpec(p, r, topo.Cfg.Groups)
	rng := rand.New(rand.NewSource(r.Seed*6364136223846793005 + 1442695040888963407))
	nodes, err := placement.NewAllocator(topo).AllocClustered(spec.Nodes, spec.ClusterGroups, rng)
	if err != nil {
		return nil, err
	}
	w := mpi.NewWorld(fab, nodes, spec.Env)
	k.At(p.Warmup, func() { w.Run(r.App.Main(spec.Cfg)) })
	return &stack{k: k, fab: fab, topo: topo, world: w}, nil
}

// probeStack runs the hand-assembled stack to completion for kernel and
// MPI counters, then builds it again, pauses it halfway through the job
// and counts the load queries adaptive routing decisions make against the
// live fabric. The stack carries the instrumented job alone, so on
// prod-campaign the fabric is far less loaded than in the campaign.
func probeStack(p experiments.Profile, r run, rp *replay, tr *tracer, parent int) error {
	st, err := newStack(p, r)
	if err != nil {
		return err
	}
	t0 := time.Now()
	st.k.Run()
	t1 := time.Now()
	if !st.world.Done.Fired() {
		return fmt.Errorf("stack %s seed %d: job did not complete", r.App.Name(), r.Seed)
	}
	rp.Stack = st.k.Stats()
	for _, cs := range st.world.AggregateProfile().ByCall {
		rp.MPICalls += cs.Calls
	}
	tr.add(span{Name: "mpi.World.Run+sim.Kernel.Run", Cat: "mpi", Start: t0, End: t1, Parent: parent,
		Args: map[string]any{"proc_switches": rp.Stack.ProcSwitches, "mpi_calls": rp.MPICalls}})
	if !r.BG && st.world.Runtime() != rp.Res.Jobs[0].Runtime {
		return fmt.Errorf("stack %s seed %d: runtime %v, RunOne %v", r.App.Name(), r.Seed,
			st.world.Runtime(), rp.Res.Jobs[0].Runtime)
	}

	half, err := newStack(p, r)
	if err != nil {
		return err
	}
	now := p.Warmup + st.world.Runtime()/2
	t2 := time.Now()
	half.k.RunUntil(now)
	t3 := time.Now()
	tr.add(span{Name: "sim.Kernel.RunUntil", Cat: "sim", Start: t2, End: t3, Parent: parent})
	est := &countingLoad{f: half.fab}
	eng := routing.NewEngine(half.topo, est, routing.DefaultConfig())
	rng := rand.New(rand.NewSource(r.Seed))
	nr := half.topo.NumRouters()
	buf := make([]topology.LinkID, 0, 16)
	// Decisions come in batches, with the job advanced by one load window
	// between them, so that Load re-samples its links as in a live run
	// instead of answering from the sample the first query cached.
	const batches, perBatch = 200, 100
	step := network.DefaultParams().LoadStaleness
	var routeHost time.Duration
	for b := 0; b < batches; b++ {
		now += step
		half.k.RunUntil(now)
		t4 := time.Now()
		for i := 0; i < perBatch; i++ {
			src, dst := topology.RouterID(rng.Intn(nr)), topology.RouterID(rng.Intn(nr))
			buf, _ = eng.RouteInto(buf[:0], r.Mode, rng, src, dst, 0)
		}
		routeHost += time.Since(t4)
	}
	tr.add(span{Name: "routing probe: RouteInto batches and RunUntil steps", Cat: "routing", Start: t3, End: time.Now(), Parent: parent,
		Args: map[string]any{"decisions": batches * perBatch, "load_queries": est.n, "route_ns": routeHost.Nanoseconds()}})
	rp.Decisions, rp.LoadQueries = batches*perBatch, est.n
	half.k.Run() // drain so the job's procs finish
	return nil
}

// countingLoad counts the load queries adaptive routing makes.
type countingLoad struct {
	f *network.Fabric
	n int
}

func (c *countingLoad) Load(id topology.LinkID) int {
	c.n++
	return c.f.Load(id)
}
