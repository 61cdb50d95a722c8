// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the simulator only through public entry points —
// experiments.Profile.SamplesOn for the campaigns, an in-process
// service.Server for the service layer — and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload prod-campaign|iso-smallmsg \
//	          --seed N --seconds S --trace 0|1 [--record]
//
// --trace 0 measures the end-to-end metrics. --trace 1 is a separate run
// that records spans and a CPU profile and reports the per-layer metrics;
// it also writes a Chrome trace-event file and a per-layer table under
// .bench_build/traces. See README.md for the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome accumulates one run's metrics and checks.
type outcome struct {
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
	canary    string // digest of the fixed canary input
	plan      string // digest of the whole plan's outputs, in plan order
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// expected holds the recorded output digests (expected.json).
type expected struct {
	DefaultSeed int64             `json:"default_seed"`
	HeldoutSeed int64             `json:"heldout_seed"`
	Canary      map[string]string `json:"canary"`
	Plan        map[string]string `json:"plan"`
}

//go:embed expected.json
var expectedJSON []byte

func planKey(workload string, seed int64, seconds int) string {
	return fmt.Sprintf("%s seed=%d seconds=%d", workload, seed, seconds)
}

// unbounded stands in for an infinite latency (a failed query) in JSON.
const unbounded = 1e12

func main() {
	name := flag.String("workload", "", "workload: prod-campaign or iso-smallmsg")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "measurement length the plan is sized for")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	record := flag.Bool("record", false, "record this run's output digests in _perfbench/expected.json")
	flag.Parse()

	w, ok := workloads()[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	var exp expected
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: expected.json: %v\n", err)
		os.Exit(2)
	}
	ops := w.plan(rand.New(rand.NewSource(*seed)), *seconds)

	out := newOutcome()
	var err error
	if *trace == 0 {
		err = batchUntraced(w, ops, out)
	} else {
		err = traced(w, ops, *seed, out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}

	if want, ok := exp.Canary[w.Name]; ok && out.canary != "" && out.canary != want {
		out.problem("canary digest %s, recorded %s", out.canary, want)
		out.failed++
	}
	key := planKey(w.Name, *seed, *seconds)
	if want, ok := exp.Plan[key]; ok && out.plan != "" && *trace == 0 && out.plan != want {
		out.problem("plan digest %s, recorded %s for %s", out.plan, want, key)
		out.failed++
	}
	if *record {
		if err := recordDigests(exp, w.Name, key, out); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: record: %v\n", err)
			os.Exit(1)
		}
	}

	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", p)
	}
	printTable(w.Name, res, out)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printTable prints every metric by name with its unit, plus the output
// check, ahead of the JSON line.
func printTable(workload string, res result, out *outcome) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s\n", workload)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("%-36s %14.6g (%d of %d)\n", "failed_frac", frac, res.Failed, res.Attempted)
	fmt.Printf("%-36s %14s plan %s canary %s\n", "output_check", map[bool]string{true: "ok", false: "FAILED"}[res.Correct], out.plan, out.canary)
}

// recordDigests writes this run's digests into _perfbench/expected.json.
func recordDigests(exp expected, workload, key string, out *outcome) error {
	if len(out.problems) > 0 || out.failed > 0 {
		return fmt.Errorf("refusing to record a run that failed its checks")
	}
	if exp.Canary == nil {
		exp.Canary = map[string]string{}
	}
	if exp.Plan == nil {
		exp.Plan = map[string]string{}
	}
	if out.canary != "" {
		exp.Canary[workload] = out.canary
	}
	if out.plan != "" {
		exp.Plan[key] = out.plan
	}
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("_perfbench", "expected.json"), append(data, '\n'), 0o644)
}

// sampleRSS polls this process's resident set size every 10 ms until the
// returned stop function is called, which returns the largest sample in
// MB.
func sampleRSS() (stop func() float64) {
	done := make(chan struct{})
	peak := make(chan float64)
	go func() {
		hi := procStatusMB("VmRSS:")
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				hi = max(hi, procStatusMB("VmRSS:"))
			case <-done:
				peak <- hi
				return
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

// procStatusMB reads one kB-valued field of /proc/self/status in MB.
func procStatusMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// finite maps an infinite latency (a failed query) to a JSON-safe value.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return unbounded
	}
	return v
}

// medianDur returns the median of durations in seconds.
func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median. Each repetition starts from a collected heap, as a fresh process
// would. One repetition takes about 11 ms on the 2-CPU reference host.
const setupReps = 80

// batchUntraced measures a batch workload's end-to-end metrics.
func batchUntraced(w *workload, ops []op, out *outcome) error {
	var setups []time.Duration
	var ms []*core.Machine
	for rep := 0; rep < setupReps; rep++ {
		ms = nil // the previous repetition's machines are garbage too
		runtime.GC()
		t0 := time.Now()
		m, err := newMachines(w)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))
		ms = m
	}
	if err := batchCanary(w, ms, out); err != nil {
		return err
	}
	// peak_rss_mb covers the campaign only: drop the set-up repetitions'
	// garbage, then sample the resident set while the campaign runs.
	debug.FreeOSMemory()
	stopRSS := sampleRSS()
	res, wall := runPass(w, ms, ops, nil)
	peakRSS := stopRSS()
	service := make([]time.Duration, len(res))
	lat := make([]float64, len(res))
	digests := make([]string, len(res))
	for i, r := range res {
		service[i], digests[i] = r.Dur, r.Digest
		lat[i] = r.Dur.Seconds() * 1e3
		if r.Err != nil {
			out.problem("op %d: %v", i, r.Err)
			out.failed++
			lat[i] = math.Inf(1)
		}
	}
	out.attempted += len(res)
	out.plan = planDigest(digests)

	p90, err := tail(lat, 0.90)
	if err != nil {
		out.problem("query_p90_ms: %v", err)
	}
	best := -1
	if out.failed == 0 {
		best = w.maxRate(ops, service)
	}
	if best < 0 {
		out.problem("max_rate_qps: no ladder rate meets p90 <= %g ms", w.LimitMS)
	}
	out.set("setup_s", medianDur(setups), "s")
	out.set("runs_per_s", float64(len(res))/wall.Seconds(), "1/s")
	out.set("query_p50_ms", finite(median(lat)), "ms")
	out.set("query_p90_ms", finite(p90), "ms")
	out.set("max_rate_qps", w.Ladder.rate(best), "1/s")
	out.set("peak_rss_mb", peakRSS, "MB")
	return nil
}

// batchCanary runs the fixed canary input on every worker machine — the
// warm-up before timing — and checks that all of them agree.
func batchCanary(w *workload, ms []*core.Machine, out *outcome) error {
	for i, m := range ms {
		s, err := sampleOne(w, m, w.Canary)
		if err != nil {
			return fmt.Errorf("canary: %w", err)
		}
		d := sampleDigest(s)
		out.attempted++
		if i > 0 && d != out.canary {
			out.problem("canary digest differs between worker machines: %s vs %s", d, out.canary)
			out.failed++
		}
		out.canary = d
	}
	return nil
}
