// Command reproduce regenerates every table and figure from the paper's
// evaluation section and writes the rendered text artifacts.
//
// Usage:
//
//	reproduce [-profile quick|standard] [-exp all|fig1|table1|fig2|...|t2family] [-seed N] [-j N] [-out DIR]
//	          [-cpuprofile FILE] [-memprofile FILE] [-trace FILE]
//
// The experiments run in the order of experiments.Campaigns, which also
// supplies the valid -exp values. With -out set, each experiment's output
// is also written to DIR/<exp>.txt. Figures 2/5/6/7/8 are derived from
// the Table II production campaign, so requesting any of them runs that
// campaign once; -exp t2family asks for all six. Figure 14 likewise comes
// from the Fig. 13 campaigns.
//
// -j sets how many runs execute concurrently (default: all CPUs). Each
// worker simulates on its own machine instance (reused warm across the
// runs assigned to its slot) and results are merged in seed order, so
// the output is identical for every -j value.
//
// -cpuprofile / -memprofile / -trace write pprof CPU and heap profiles and
// a runtime execution trace covering the selected experiments; pair them
// with -exp to profile one campaign in isolation. Ensemble worker
// goroutines carry the pprof label worker=<slot>, so per-slot time splits
// are one `pprof -tagfocus worker=N` (or the trace viewer's goroutine
// grouping) away. The heap profile is written at exit after a forced GC,
// so it shows live retained memory; inspect with `go tool pprof` /
// `go tool trace`.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/parallel"
)

func main() {
	// The valid -exp values come from the campaign registry: every
	// artifact name plus each shared campaign's alias.
	var valid []string
	for _, c := range experiments.Campaigns {
		valid = append(valid, c.Names...)
		if c.Alias != "" {
			valid = append(valid, c.Alias)
		}
	}
	profileName := flag.String("profile", "quick", "experiment scale: quick or standard")
	exp := flag.String("exp", "all", "experiment to run: all "+strings.Join(valid, " "))
	seed := flag.Int64("seed", 1, "base random seed")
	jobs := flag.Int("j", runtime.NumCPU(), "parallel runs per campaign (output is identical for any value)")
	out := flag.String("out", "", "directory for text artifacts (optional)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (live objects after GC) to this file at exit")
	traceFile := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()

	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fatal(err)
		}
		atExit(func() {
			pprof.StopCPUProfile()
			pf.Close()
		})
	}
	if *traceFile != "" {
		tf, err := os.Create(*traceFile)
		if err != nil {
			fatal(err)
		}
		if err := trace.Start(tf); err != nil {
			fatal(err)
		}
		atExit(func() {
			trace.Stop()
			tf.Close()
		})
	}
	if *memProfile != "" {
		path := *memProfile
		atExit(func() {
			mf, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "reproduce:", err)
				return
			}
			defer mf.Close()
			runtime.GC() // flush dead objects so the profile shows live memory
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintln(os.Stderr, "reproduce:", err)
			}
		})
	}
	defer runExitHooks()

	var p experiments.Profile
	switch *profileName {
	case "quick":
		p = experiments.Quick()
	case "standard":
		p = experiments.Standard()
	default:
		fmt.Fprintf(os.Stderr, "unknown profile %q\n", *profileName)
		os.Exit(2)
	}
	p.Workers = parallel.Workers(*jobs)

	if *exp != "all" && !slices.Contains(valid, *exp) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: all %s\n", *exp, strings.Join(valid, " "))
		runExitHooks()
		os.Exit(2)
	}
	want := func(c experiments.Campaign, name string) bool {
		return *exp == "all" || *exp == c.Alias || *exp == name
	}
	for _, c := range experiments.Campaigns {
		if !slices.ContainsFunc(c.Names, func(name string) bool { return want(c, name) }) {
			continue
		}
		label := strings.Join(c.Names, "+")
		start := time.Now()
		fmt.Fprintf(os.Stderr, "== %s (%s profile) ==\n", label, p.Name)
		rs, err := c.Run(p, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "== %s done in %.1fs ==\n", label, time.Since(start).Seconds())
		for i, name := range c.Names {
			if want(c, name) {
				emit(name, rs[i].Render(), *out)
			}
		}
	}
}

// emit prints one artifact's text and, with -out set, also writes it to
// dir/<name>.txt.
func emit(name, text, dir string) {
	fmt.Println(text)
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".txt"), []byte(text), 0o644); err != nil {
		fatal(err)
	}
}

// exitHooks are profiler/trace finalizers that must flush even on the
// os.Exit paths (defers don't run there).
var exitHooks []func()

func atExit(fn func()) { exitHooks = append(exitHooks, fn) }

func runExitHooks() {
	for i := len(exitHooks) - 1; i >= 0; i-- {
		exitHooks[i]()
	}
	exitHooks = nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reproduce:", err)
	runExitHooks()
	os.Exit(1)
}
