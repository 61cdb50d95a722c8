package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary the benchmark makes.
type span struct {
	Name, Cat  string
	Start, End time.Time
	Tid        int
	ID, Parent int // Parent 0 is the root
	Args       map[string]any
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths can share the instrumented helpers.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records s and returns its ID (0 on a nil tracer).
func (t *tracer) add(s span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens a span now and returns its ID, so that spans started
// inside it can name it as their parent before it ends.
func (t *tracer) begin(name, cat string, parent int) int {
	return t.add(span{Name: name, Cat: cat, Start: time.Now(), Parent: parent})
}

// end closes a span opened by begin.
func (t *tracer) end(id int, args map[string]any) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Now()
	t.spans[id-1].Args = args
}

// chromeEvent is one Chrome trace-event "complete" event.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open offline.
func (t *tracer) writeChrome(w io.Writer) error {
	evs := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		for k, v := range s.Args {
			args[k] = v
		}
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X", Pid: 1, Tid: s.Tid,
			Ts:   float64(s.Start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

// selfTimes sums, per span name, total and self time: a span's duration
// minus the part of its interval that its children cover (children that
// overlap each other count once).
func (t *tracer) selfTimes() (names []string, total, self map[string]time.Duration, count map[string]int) {
	children := map[int][]span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	total, self, count = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	for _, s := range t.spans {
		d := s.End.Sub(s.Start)
		if count[s.Name] == 0 {
			names = append(names, s.Name)
		}
		count[s.Name]++
		total[s.Name] += d
		self[s.Name] += d - covered(s, children[s.ID])
	}
	sort.Strings(names)
	return names, total, self, count
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := append([]span(nil), kids...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start.Before(iv[j].Start) })
	var sum time.Duration
	curS, curE := iv[0].Start, iv[0].End
	flush := func() {
		if curS.Before(parent.Start) {
			curS = parent.Start
		}
		if curE.After(parent.End) {
			curE = parent.End
		}
		if curE.After(curS) {
			sum += curE.Sub(curS)
		}
	}
	for _, s := range iv[1:] {
		if s.Start.After(curE) {
			flush()
			curS, curE = s.Start, s.End
		} else if s.End.After(curE) {
			curE = s.End
		}
	}
	flush()
	return sum
}

// layerRow is one line of the per-layer table: a metric with the
// numerator and base of every ratio.
type layerRow struct {
	Name, Unit string
	Value      float64
	Num, Base  string
	Source     string
}

// layers collects per-layer metrics and their table rows.
type layers struct {
	out  *outcome
	rows []layerRow
}

// set reports one per-layer metric. num and base describe a ratio's
// numerator and denominator; both are empty for plain counts and times.
func (l *layers) set(name string, v float64, unit, num, base, source string) {
	l.out.set(name, v, unit)
	l.rows = append(l.rows, layerRow{Name: name, Unit: unit, Value: v, Num: num, Base: base, Source: source})
}

// ratio reports num/base, or 0 for an empty base.
func (l *layers) ratio(name string, num, base float64, unit, numDesc, baseDesc, source string) {
	v := 0.0
	if base != 0 {
		v = num / base
	}
	l.set(name, v, unit, fmt.Sprintf("%.6g %s", num, numDesc), fmt.Sprintf("%.6g %s", base, baseDesc), source)
}

// writeTable writes the per-layer table as Markdown, followed by span
// self times.
func (l *layers) writeTable(w io.Writer, title string, tr *tracer) {
	fmt.Fprintf(w, "# %s\n\n| metric | value | unit | numerator | base | source |\n|---|---|---|---|---|---|\n", title)
	for _, r := range l.rows {
		fmt.Fprintf(w, "| %s | %.6g | %s | %s | %s | %s |\n", r.Name, r.Value, r.Unit, dash(r.Num), dash(r.Base), r.Source)
	}
	names, total, self, count := tr.selfTimes()
	fmt.Fprintf(w, "\n## Spans\n\n| span | count | total ms | self ms |\n|---|---|---|---|\n")
	for _, n := range names {
		fmt.Fprintf(w, "| %s | %d | %.3f | %.3f |\n", n, count[n],
			total[n].Seconds()*1e3, self[n].Seconds()*1e3)
	}
}

func dash(s string) string {
	if s == "" {
		return "—"
	}
	return s
}

// writeArtifacts writes the Chrome trace and the per-layer table under
// .bench_build/traces and returns their paths.
func writeArtifacts(workload string, seed int64, tr *tracer, l *layers) (string, string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		return "", "", err
	}
	if err := os.WriteFile(base+".trace.json", buf.Bytes(), 0o644); err != nil {
		return "", "", err
	}
	buf.Reset()
	l.writeTable(&buf, fmt.Sprintf("%s seed %d: per-layer metrics", workload, seed), tr)
	if err := os.WriteFile(base+".layers.md", buf.Bytes(), 0o644); err != nil {
		return "", "", err
	}
	return base + ".trace.json", base + ".layers.md", nil
}

// Layer packages for CPU attribution, by import-path prefix.
var cpuLayers = []struct{ layer, prefix string }{
	{"sim", "repro/internal/sim."},
	{"network", "repro/internal/network."},
	{"routing", "repro/internal/routing."},
	{"mpi", "repro/internal/mpi."},
	{"runtime", "runtime."},
	{"runtime", "runtime/"},
}

// parseCPUProfile decodes a gzipped pprof CPU profile.
func parseCPUProfile(profile []byte) (*pprofProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return decodeProfile(raw)
}

// byLayer attributes the profile's samples to layers by their leaf (self)
// function and returns each layer's share of all samples.
func (p *pprofProfile) byLayer() (map[string]float64, int64) {
	var total int64
	by := map[string]int64{}
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		n := s.values[0]
		total += n
		fn := p.funcName(p.locFns[s.locs[0]], 0)
		for _, l := range cpuLayers {
			if strings.HasPrefix(fn, l.prefix) {
				by[l.layer] += n
				break
			}
		}
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		if total > 0 {
			out[l.layer] = float64(by[l.layer]) / float64(total)
		}
	}
	return out, total
}

// nanosUnder returns the CPU nanoseconds (the profile's second sample
// value) of the samples whose stack holds a frame of function fn,
// inlined frames included.
func (p *pprofProfile) nanosUnder(fn string) int64 {
	var ns int64
	for _, s := range p.samples {
		if len(s.values) < 2 {
			continue
		}
	stack:
		for _, loc := range s.locs {
			fns := p.locFns[loc]
			for i := range fns {
				if p.funcName(fns, i) == fn {
					ns += s.values[1]
					break stack
				}
			}
		}
	}
	return ns
}

// pprofProfile holds the parts of a profile.proto message the benchmark
// reads: samples, locations' functions and the string table.
type pprofProfile struct {
	samples []pprofSample
	locFns  map[uint64][]uint64 // location id → function ids, innermost inlined frame first
	fnName  map[uint64]int64    // function id → string table index
	strs    []string
}

type pprofSample struct {
	locs   []uint64 // leaf first
	values []int64  // sample count, CPU nanoseconds
}

// funcName returns the name of function fns[i], or "" when absent.
func (p *pprofProfile) funcName(fns []uint64, i int) string {
	if i >= len(fns) {
		return ""
	}
	j := p.fnName[fns[i]]
	if j < 0 || int(j) >= len(p.strs) {
		return ""
	}
	return p.strs[j]
}

// decodeProfile parses the subset of profile.proto the benchmark needs:
// Profile.sample (2), .location (4), .function (5), .string_table (6).
func decodeProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{locFns: map[uint64][]uint64{}, fnName: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s pprofSample
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					return packed(v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return packed(v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line, innermost inlined frame first
					return eachField(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFns[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.fnName[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

// eachField walks one protobuf message, calling f with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("pprof: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("pprof: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", wire)
		}
		if err := f(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// packed yields a repeated varint field's values, packed or not.
func packed(v uint64, data []byte, yield func(uint64)) error {
	if data == nil {
		yield(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("pprof: bad packed varint")
		}
		yield(x)
		data = data[n:]
	}
	return nil
}
