package sim

import "testing"

// BenchmarkEventThroughput measures raw kernel event dispatch: the floor
// cost of everything built on the simulator.
func BenchmarkEventThroughput(b *testing.B) {
	k := NewKernel()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(Nanosecond, tick)
		}
	}
	b.ResetTimer()
	k.At(0, tick)
	k.Run()
}

// churnHandler keeps a population of typed events in flight: every
// firing schedules one successor at a pseudo-random delay until n events
// have been scheduled in total, so the queue stays at its initial depth
// until the final drain.
type churnHandler struct {
	k         *Kernel
	id        HandlerID
	scheduled int
	n         int
	x         uint64 // xorshift state
	delays    []Time // delay palette, indexed by the random draw
}

func (h *churnHandler) HandleEvent(kind uint8, a, b int64) {
	if h.scheduled < h.n {
		h.schedule()
	}
}

func (h *churnHandler) schedule() {
	h.x ^= h.x << 13
	h.x ^= h.x >> 7
	h.x ^= h.x << 17
	h.scheduled++
	h.k.AfterEvent(h.delays[h.x%uint64(len(h.delays))], h.id, 0, 0, 0)
}

// fill schedules up to depth events (fewer if n is smaller).
func (h *churnHandler) fill(depth int) {
	for i := 0; i < depth && h.scheduled < h.n; i++ {
		h.schedule()
	}
}

// churnSeed is the xorshift state every churnHandler starts from.
const churnSeed = 0x9e3779b97f4a7c15

// newChurn registers a churnHandler that will schedule n events in total,
// with delays drawn from delays.
func newChurn(k *Kernel, n int, delays []Time) *churnHandler {
	h := &churnHandler{k: k, n: n, x: churnSeed, delays: delays}
	h.id = k.RegisterHandler(h)
	return h
}

// BenchmarkHeapChurn measures typed-event dispatch on a deep pending
// queue, the regime of a busy fabric: 1024 events stay in flight with
// delays between 1ns and 4µs, and the run executes exactly b.N events.
func BenchmarkHeapChurn(b *testing.B) {
	k := NewKernel()
	delays := make([]Time, 4096)
	for i := range delays {
		delays[i] = Time(i+1) * Nanosecond
	}
	h := newChurn(k, b.N, delays)
	h.fill(1024)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	if got := k.Stats().EventsExecuted; got != uint64(b.N) {
		b.Fatalf("executed %d events, want b.N = %d", got, b.N)
	}
}

// benchHandler self-reschedules through the typed-event fast path until
// it has fired n times.
type benchHandler struct {
	k  *Kernel
	id HandlerID
	i  int
	n  int
}

func (h *benchHandler) HandleEvent(kind uint8, a, b int64) {
	h.i++
	if h.i < h.n {
		h.k.AfterEvent(Nanosecond, h.id, kind, a, b)
	}
}

// BenchmarkTypedEventThroughput measures the typed-event dispatch path
// (AfterEvent + HandleEvent): same event stream as
// BenchmarkEventThroughput but with scalar payloads instead of closures,
// so the difference between the two is the closure-boxing cost the fabric
// no longer pays. Run with -benchmem: this path must report 0 allocs/op.
func BenchmarkTypedEventThroughput(b *testing.B) {
	k := NewKernel()
	h := &benchHandler{k: k, n: b.N}
	h.id = k.RegisterHandler(h)
	b.ReportAllocs()
	b.ResetTimer()
	k.AtEvent(0, h.id, 0, 0, 0)
	k.Run()
}

// BenchmarkProcSwitch measures coroutine handoff cost (two goroutine
// channel transfers per blocking operation).
func BenchmarkProcSwitch(b *testing.B) {
	k := NewKernel()
	k.Spawn(func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Nanosecond)
		}
	})
	b.ResetTimer()
	k.Run()
}
