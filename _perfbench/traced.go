package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// traced is the --trace 1 run: it replays the workload's inputs with
// spans around every call the benchmark makes into a layer and a CPU
// profile, drives a few of the same runs through the lower layers'
// public functions, and reports the per-layer metrics.
func traced(w *workload, ops []op, seed int64, out *outcome) error {
	tr := newTracer()
	l := &layers{out: out}
	// want maps plan index → campaign digest, for the RunOne replays.
	probeOps, want, err := tracedBatch(w, ops, seed, tr, l)
	if err != nil {
		return err
	}
	if err := probeLayers(w, probeOps, want, tr, l); err != nil {
		return err
	}
	trace, table, err := writeArtifacts(w.Name, seed, tr, l)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s and %s\n", trace, table)
	return nil
}

// profileCPU runs f under the CPU profiler and returns the profile.
func profileCPU(f func()) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	f()
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}

// setCPU reports each layer's share of the profiled samples.
func setCPU(l *layers, p *pprofProfile, source string) {
	fr, total := p.byLayer()
	for _, layer := range []string{"sim", "network", "routing", "mpi", "runtime"} {
		l.set(layer+".cpu_frac", fr[layer], "fraction",
			fmt.Sprintf("%.0f samples with a %s leaf frame", fr[layer]*float64(total), layer),
			fmt.Sprintf("%d CPU samples", total), source)
	}
}

// heapAfterGC returns the live heap in bytes after a full collection.
func heapAfterGC() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// serviceRate is the rate, in distinct queries per second, at which the
// service phase sends its requests: one at a time apart from the
// duplicate, so the service metrics see no queueing.
const serviceRate = 1.0

// routeFn is the routing decision every packet takes once, at the head of
// its injection queue; CPU under it includes the Fabric.Load queries it
// makes.
const routeFn = "repro/internal/routing.(*Engine).RouteInto"

// tracedBatch replays the first half of a batch plan twice on the same
// worker machines, untraced and then traced, and reports the campaign
// layers. It returns the ops the probes replay and their campaign digests.
func tracedBatch(w *workload, ops []op, seed int64, tr *tracer, l *layers) ([]op, map[int]string, error) {
	out := l.out
	ms, err := newMachines(w)
	if err != nil {
		return nil, nil, err
	}
	if err := batchCanary(w, ms, out); err != nil {
		return nil, nil, err
	}
	prefix := ops[:len(ops)/2]
	runPass(w, ms, prefix[:min(2*workers, len(prefix))], nil) // let heaps and arenas grow before timing
	ref, refWall := runPass(w, ms, prefix, nil)

	var res []runResult
	var wall time.Duration
	pass := tr.begin("campaign pass (traced)", "experiments", 0)
	prof, err := profileCPU(func() {
		res, wall = runPass(w, ms, prefix, func(wk int, o op, start, end time.Time, r *runResult) {
			tr.add(span{Name: "experiments.Profile.SamplesOn", Cat: "experiments", Start: start, End: end,
				Tid: wk + 1, Parent: pass, Args: map[string]any{"app": o.App, "mode": o.Modes[0],
					"seed": o.Seed, "events": r.Sample.Events, "packets": r.Sample.Packets}})
		})
	})
	tr.end(pass, map[string]any{"runs": len(prefix)})
	if err != nil {
		return nil, nil, err
	}
	p, err := parseCPUProfile(prof)
	if err != nil {
		return nil, nil, err
	}
	retained := heapAfterGC()
	runtime.KeepAlive(res)

	want := map[int]string{}
	var events, packets uint64
	var busy time.Duration
	for i, r := range res {
		out.attempted++
		if r.Err != nil || ref[i].Err != nil || r.Digest != ref[i].Digest {
			out.problem("op %d: traced digest %s, untraced %s (%v, %v)", i, r.Digest, ref[i].Digest, r.Err, ref[i].Err)
			out.failed++
		}
		want[i] = r.Digest
		events += r.Sample.Events
		packets += r.Sample.Packets
		busy += r.Dur
	}
	n := float64(len(res))
	src := fmt.Sprintf("traced SamplesOn pass, %d runs", len(res))
	l.ratio("sim.events", float64(events), n, "count", "kernel events", "runs", src)
	l.ratio("network.packets", float64(packets), n, "count", "delivered packets", "runs", src)
	l.ratio("sim.events_per_packet", float64(events), float64(packets), "ratio", "kernel events", "delivered packets", src)
	l.ratio("sim.ns_per_event", float64(busy.Nanoseconds()), float64(events), "ns", "host ns in SamplesOn", "kernel events", src)
	l.ratio("experiments.worker_busy_frac", busy.Seconds(), float64(len(ms))*wall.Seconds(), "fraction",
		"s of run time", "s (workers x pass wall)", src)
	l.set("experiments.retained_bytes", retained, "bytes", "", "", "live heap after GC, samples retained")
	var warm, cold uint64
	for _, m := range ms {
		a, b := m.ReuseStats()
		warm, cold = warm+a, cold+b
	}
	l.set("core.warm_reuses", float64(warm), "count", "", "", "worker machines' ReuseStats")
	l.set("core.cold_builds", float64(cold), "count", "", "", "worker machines' ReuseStats")
	l.ratio("trace.overhead_frac", wall.Seconds()-refWall.Seconds(), refWall.Seconds(), "fraction",
		"s traced minus untraced pass wall", "s untraced pass wall", src)
	setCPU(l, p, "CPU profile of the traced pass, leaf frames")
	// Every packet is routed once, so the pass's packets are its decisions.
	l.ratio("routing.ns_per_decision", float64(p.nanosUnder(routeFn)), float64(packets), "ns",
		"CPU ns in samples under routing.Engine.RouteInto", "routing decisions (delivered packets)",
		"CPU profile of the traced pass")

	// The service layer: the plan's first runs asked as queries of an
	// in-process server, with a back-to-back duplicate and a malformed body.
	if err := serviceLayer(w, serviceOps(prefix[:min(4, len(prefix))], seed), tr, l); err != nil {
		return nil, nil, err
	}
	return prefix[:min(4, len(prefix))], want, nil
}

// handlerSender serves requests in-process through an http.Handler.
func handlerSender(h http.Handler) sender {
	return func(_ int, o op) answer {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(o.Body)))
		return answer{Status: rec.Code, Hash: bodyHash(rec.Body.Bytes())}
	}
}

// handlerMetrics reads an in-process server's /metrics page.
func handlerMetrics(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return parseMetrics(rec.Body.String())
}

// parseMetrics reads Prometheus-style "simd_name value" lines.
func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		var name string
		var v float64
		if _, err := fmt.Sscan(line, &name, &v); err == nil {
			out[strings.TrimPrefix(name, "simd_")] = v
		}
	}
	return out
}

// serviceLayer sends ops open-loop at serviceRate to an in-process
// server (the handler cmd/simd serves), with a span per request, and
// reports the service metrics from the server's /metrics deltas. It also
// times DecodeRequest on the same bodies.
func serviceLayer(w *workload, ops []op, tr *tracer, l *layers) error {
	const source = "in-process service, first plan runs as queries"
	out := l.out
	srv := service.New(service.Config{Profile: w.Profile, Workers: workers})
	if err := srv.Prewarm([]string{"theta-mini"}); err != nil {
		return err
	}
	h := srv.Handler()
	before := handlerMetrics(h)
	phase := tr.begin("open loop", "service", 0)
	recs, ans := openLoop(ops, dueTimes(ops, serviceRate), workers, handlerSender(h), func(conn, i int, sent, done time.Time, a answer) {
		tr.add(span{Name: "http POST /v1/query", Cat: "service", Start: sent, End: done, Tid: 100 + conn,
			Parent: phase, Args: map[string]any{"kind": ops[i].Kind, "status": a.Status}})
	})
	tr.end(phase, map[string]any{"rate": serviceRate})
	after := handlerMetrics(h)
	out.attempted += len(ops)
	out.failed += checkAnswers(ops, recs, ans)
	d := func(k string) float64 { return after[k] - before[k] }

	// Client latency is averaged over the requests that executed: a
	// duplicate rides another request's execution.
	var lat, lag []float64
	for i, r := range recs {
		lag = append(lag, r.Lag())
		if r.Valid && !r.Failed && ops[i].Kind != "dup" {
			lat = append(lat, r.Latency())
		}
	}
	execMS := 0.0
	if n := d("query_latency_seconds_count"); n > 0 {
		execMS = d("query_latency_seconds_sum") * 1e3 / n
	}
	meanLat := 0.0
	for _, v := range lat {
		meanLat += v / float64(len(lat))
	}
	l.ratio("service.exec_ms_mean", d("query_latency_seconds_sum")*1e3, d("query_latency_seconds_count"), "ms",
		"ms executing", "executions", source)
	l.set("service.wait_ms", meanLat-execMS, "ms", fmt.Sprintf("%.6g ms mean client latency from due, duplicates excluded", meanLat),
		fmt.Sprintf("%.6g ms mean execution", execMS), source)
	hits, misses := d("pool_hits_total"), d("pool_misses_total")
	l.ratio("service.pool_hit_frac", hits, hits+misses, "fraction", "pool hits", "checkouts", source)
	l.ratio("service.coalesced_frac", d("requests_coalesced_total"), d("requests_total"), "fraction",
		"coalesced requests", "requests", source)
	l.ratio("service.rejected_frac", d("request_errors_client_total"), d("requests_total"), "fraction",
		"4xx responses", "requests", source)
	l.ratio("service.events_per_query", d("sim_events_total"), d("queries_executed_total"), "count",
		"kernel events", "executions", source)
	l.set("service.generator_lag_ms", median(lag), "ms", "", "", source+", median over requests")

	const reps = 200
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		for _, o := range ops {
			service.DecodeRequest(o.Body, service.Limits{})
		}
	}
	t1 := time.Now()
	tr.add(span{Name: "service.DecodeRequest", Cat: "service", Start: t0, End: t1,
		Args: map[string]any{"calls": reps * len(ops)}})
	l.ratio("service.decode_us", t1.Sub(t0).Seconds()*1e6, float64(reps*len(ops)), "us",
		"us decoding", "DecodeRequest calls", source+" bodies")
	return nil
}

// probeLayers drives the probe ops' runs through core.Machine.RunOne and
// a hand-assembled kernel/fabric/MPI stack, and reports the core, sim,
// network, routing and mpi counters the campaign entry hides.
func probeLayers(w *workload, ops []op, want map[int]string, tr *tracer, l *layers) error {
	out := l.out
	m, err := core.NewMachine(w.Profile.Theta)
	if err != nil {
		return err
	}
	m.Prewarm()
	root := tr.begin("layer probes", "core", 0)
	defer tr.end(root, nil)
	var reps []replay
	for i, o := range ops {
		runs, err := runsOf(o)
		if err != nil {
			return err
		}
		for _, r := range runs {
			rp, err := replayRunOne(w.Profile, m, r, tr, root)
			if err != nil {
				return err
			}
			out.attempted++
			if d, ok := want[i]; ok && d != rp.Digest {
				out.problem("RunOne replay of op %d: digest %s, campaign %s", i, rp.Digest, d)
				out.failed++
			}
			if err := probeStack(w.Profile, r, &rp, tr, root); err != nil {
				out.problem("%v", err)
				out.failed++
			}
			reps = append(reps, rp)
		}
	}
	var host []float64
	var minT, nonT, decisions, lq, switches, calls, ties, reduce, mpiFrac float64
	var minTr, nonTr, arena float64
	for _, rp := range reps {
		host = append(host, rp.Host.Seconds())
		minT += float64(rp.Res.MinimalTaken)
		nonT += float64(rp.Res.NonMinimalTaken)
		minTr += rp.Res.MinTransitUS
		nonTr += rp.Res.NonMinTransitUS
		arena = max(arena, float64(rp.Res.Pool.Arena))
		decisions += float64(rp.Decisions)
		lq += float64(rp.LoadQueries)
		switches += float64(rp.Stack.ProcSwitches)
		ties += float64(rp.Stack.TimestampTies)
		calls += float64(rp.MPICalls)
		reduce += rp.ReduceHost.Seconds()
		mpiFrac += rp.MPIFrac
	}
	n := float64(len(reps))
	src := fmt.Sprintf("core.Machine.RunOne replays, %d runs", len(reps))
	stackSrc := fmt.Sprintf("hand-assembled sim/network/mpi stack, instrumented job alone, %d runs", len(reps))
	probeSrc := fmt.Sprintf("routing.Engine.RouteInto on the hand-assembled stack (instrumented job alone), stepped mid-job, %d runs", len(reps))
	l.set("core.run_p50_s", median(host), "s", "", "", src)
	l.set("core.run_max_s", maxOf(host), "s", "", "", src)
	l.ratio("experiments.reduce_s", reduce, n, "s", "s in Report.Reduce and the digest fold", "runs", src)
	l.set("network.live_packets_max", arena, "count", "", "", src+", packet arena high-water")
	l.ratio("network.min_transit_us", minTr, n, "us", "us summed per-run mean minimal transit", "runs", src)
	l.ratio("network.nonmin_transit_us", nonTr, n, "us", "us summed per-run mean non-minimal transit", "runs", src)
	l.ratio("routing.decisions", minT+nonT, n, "count", "routing decisions", "runs", src)
	l.ratio("routing.nonmin_frac", nonT, minT+nonT, "fraction", "non-minimal decisions", "routing decisions", src)
	l.ratio("routing.load_queries_per_decision", lq, decisions, "ratio", "Load calls", "decisions", probeSrc)
	l.ratio("sim.proc_switches", switches, n, "count", "proc switches", "runs", stackSrc)
	l.ratio("sim.timestamp_ties", ties, n, "count", "timestamp ties", "runs", stackSrc)
	l.ratio("mpi.calls", calls, n, "count", "MPI calls", "runs", stackSrc)
	l.ratio("mpi.switches_per_call", switches, calls, "ratio", "proc switches", "MPI calls", stackSrc)
	l.ratio("mpi.sim_time_frac", mpiFrac, n, "fraction", "summed per-run MPI share of rank time", "runs", src)
	return nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
