package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/topology"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, err := tail(xs, 0.90)
	if err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with ten beyond", v, err)
	}
	if _, err := tail(xs[:99], 0.90); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, beyond := percentile(xs[:99], 0.90); beyond != 9 {
		t.Fatalf("beyond = %d, want 9", beyond)
	}
}

func TestFailedQueriesMissEveryLimit(t *testing.T) {
	recs := make([]record, 100)
	for i := range recs {
		recs[i] = record{Due: 0, Sent: 0, Done: time.Millisecond, Valid: true}
	}
	recs[3].Failed = true
	if got := recs[3].Latency(); !math.IsInf(got, 1) {
		t.Fatalf("failed latency = %v, want +Inf", got)
	}
	r := summarize(recs, 1e9)
	if r.pass(1e9) {
		t.Fatal("a rung with a failed query must not pass, whatever the limit")
	}
	for i := 0; i < 11; i++ {
		recs[i].Failed = true
	}
	if r := summarize(recs, 1e9); !math.IsInf(r.P90, 1) {
		t.Fatalf("p90 with 11 failures in 100 = %v, want +Inf", r.P90)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	ops := []op{{Kind: "run"}, {Kind: "run"}, {Kind: "run"}}
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	stall := func(_ int, o op) answer {
		if o.Seed == 0 {
			time.Sleep(60 * time.Millisecond)
		}
		return answer{Status: 200}
	}
	ops[1].Seed, ops[2].Seed = 1, 2
	recs, _ := openLoop(ops, due, 1, stall, nil)
	// Request 1 was due at 10 ms but its connection was busy until 60 ms:
	// the 50 ms it waited is charged to it and reported as generator lag.
	if lat := recs[1].Latency(); lat < 45 {
		t.Errorf("latency of the stalled request = %.1f ms, want >= 45 from its due time", lat)
	}
	if lag := recs[1].Lag(); lag < 45 {
		t.Errorf("lag = %.1f ms, want >= 45", lag)
	}
	if lat := recs[2].Latency(); lat < 35 {
		t.Errorf("latency of the next request = %.1f ms, want >= 35", lat)
	}

	// The offline replay used by the batch workloads applies the same rule.
	fifo := fifoReplay([]time.Duration{60 * time.Millisecond, 0, 0}, due, 1)
	if got := fifo[1].Latency(); math.Abs(got-50) > 1e-9 {
		t.Errorf("FIFO replay latency = %v ms, want 50", got)
	}
}

func TestBacklogDetected(t *testing.T) {
	var recs []record
	for i := 0; i < 40; i++ {
		d := time.Duration(i) * 10 * time.Millisecond
		lag := time.Duration(i*i) * time.Millisecond // the generator falls further behind
		recs = append(recs, record{Due: d, Sent: d + lag, Done: d + lag + time.Millisecond, Valid: true})
	}
	if !summarize(recs, 100).Backlog {
		t.Fatal("growing lag not reported as a backlog")
	}
}

func TestLadderHighestPassing(t *testing.T) {
	l := ladder{Base: 1, Ratio: 1.07, Rungs: 20}
	for want := -1; want < l.Rungs; want++ {
		probes := 0
		got := l.highestPassing(func(i int) bool { probes++; return i <= want })
		if got != want {
			t.Fatalf("highestPassing = %d, want %d", got, want)
		}
		if probes > 5 {
			t.Fatalf("%d probes for 20 rungs, want a binary search", probes)
		}
	}
	if r := l.rate(1) / l.rate(0); math.Abs(r-1.07) > 1e-12 {
		t.Fatalf("adjacent rungs differ by %v", r)
	}
}

func TestServiceOpsShape(t *testing.T) {
	runs := []op{
		{Kind: "run", App: "MILC", Nodes: 32, Modes: []string{"AD0"}, Seed: 7, BG: true},
		{Kind: "run", App: "MILC", Nodes: 32, Modes: []string{"AD3"}, Seed: 8, BG: true},
	}
	ops := serviceOps(runs, 3)
	kinds := ""
	for _, o := range ops {
		kinds += o.Kind + " "
	}
	if kinds != "run dup bad run " {
		t.Fatalf("service requests %q, want a run, its duplicate, a malformed body, a run", kinds)
	}
	if !bytes.Equal(ops[0].Body, ops[1].Body) || bytes.Equal(ops[0].Body, ops[3].Body) {
		t.Fatal("the duplicate must repeat the first query's body, and only it")
	}
	if ops[2].Valid() {
		t.Fatal("the malformed body must expect a 400")
	}
	due := dueTimes(ops, 1)
	if due[1] != due[0] || due[2] != time.Second {
		t.Fatalf("due times %v: the duplicate must be due with its original", due)
	}
}

func TestCheckAnswers(t *testing.T) {
	q := op{Kind: "run", Body: []byte(`{"app":"MILC"}`)}
	d := q
	d.Kind = "dup"
	ops := []op{q, d, {Kind: "bad", Body: []byte(`{`)}}
	recs := make([]record, len(ops))
	good := []answer{{Status: 200, Hash: "h"}, {Status: 200, Hash: "h"}, {Status: 400}}
	if n := checkAnswers(ops, recs, good); n != 0 {
		t.Fatalf("%d failures on correct answers", n)
	}
	recs = make([]record, len(ops))
	bad := []answer{{Status: 200, Hash: "h"}, {Status: 200, Hash: "other"}, {Status: 200}}
	if n := checkAnswers(ops, recs, bad); n != 2 || recs[0].Failed || !recs[1].Failed || !recs[2].Failed {
		t.Fatalf("%d failures %+v: want the differing duplicate and the accepted malformed body", n, recs)
	}
}

// tinyWorkload is a 4-group test dragonfly at the smallest app scale.
func tinyWorkload() *workload {
	p := experiments.Bench()
	p.Theta = topology.TestConfig(4)
	p.Iterations = map[string]int{"MILC": 1}
	p.Warmup = 0
	return &workload{Name: "tiny", Profile: p}
}

func TestDigestStableAtTinyInput(t *testing.T) {
	w := tinyWorkload()
	o := op{Kind: "run", App: "MILC", Nodes: 8, Modes: []string{"AD3"}, Seed: 3}
	run := func(m *core.Machine, o op) string {
		s, err := sampleOne(w, m, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSample(s); err != nil {
			t.Fatal(err)
		}
		return sampleDigest(s)
	}
	ms, err := newMachines(w)
	if err != nil {
		t.Fatal(err)
	}
	first := run(ms[0], o)
	if again := run(ms[0], o); again != first {
		t.Fatalf("warm rerun digest %s, first %s", again, first)
	}
	if other := run(ms[1], o); other != first {
		t.Fatalf("second machine digest %s, first %s", other, first)
	}
	o.Seed = 4
	if next := run(ms[0], o); next == first {
		t.Fatal("a different seed gave the same digest")
	}
}

func TestCPUProfileAttribution(t *testing.T) {
	w := tinyWorkload()
	ms, err := newMachines(w)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		if _, err := sampleOne(w, ms[0], op{App: "MILC", Nodes: 8, Modes: []string{"AD0"}, Seed: 1}); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	fr, total := p.byLayer()
	if total == 0 {
		t.Skip("no CPU samples collected")
	}
	sum := 0.0
	for _, v := range fr {
		sum += v
	}
	if fr["sim"]+fr["network"] == 0 || sum > 1+1e-9 {
		t.Fatalf("layer shares %v of %d samples", fr, total)
	}
	// Nearly every sample was taken inside the simulation kernel's run
	// loop; background GC workers account for the rest.
	none := p.nanosUnder("repro/internal/sim.noSuchFunction")
	under := p.nanosUnder("repro/internal/sim.(*Kernel).Run")
	var ns int64
	for _, s := range p.samples {
		ns += s.values[1]
	}
	if none != 0 || under == 0 || under > ns || float64(under) < 0.5*float64(ns) {
		t.Fatalf("CPU under Kernel.Run %d ns of %d; under a missing function %d", under, ns, none)
	}
}
