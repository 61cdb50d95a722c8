package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The tests in this file check the kernel's firing order against a
// reference model: a queue kept sorted by (t, seq), where seq is a global
// scheduling counter. The kernel's contract is exactly that order — events
// fire by time, ties in scheduling order, whether they went through the
// event queue, the same-timestamp band or a tail call.

// orderOracle is the reference scheduler: a pending list sorted by
// (t, seq), popped from the front.
type orderOracle struct {
	now     Time
	seq     uint64
	inEvent bool
	pend    []oracleEvent
	fire    func(id int)
}

type oracleEvent struct {
	t    Time
	seq  uint64
	id   int
	tail bool // registered through tail; does not block later tail calls
}

func (o *orderOracle) insert(e oracleEvent) {
	o.seq++
	e.seq = o.seq
	i := sort.Search(len(o.pend), func(i int) bool {
		p := o.pend[i]
		return p.t > e.t || (p.t == e.t && p.seq > e.seq)
	})
	o.pend = append(o.pend, oracleEvent{})
	copy(o.pend[i+1:], o.pend[i:])
	o.pend[i] = e
}

func (o *orderOracle) Now() Time { return o.now }

func (o *orderOracle) At(t Time, id int, _ bool) { o.insert(oracleEvent{t: t, id: id}) }

// TryTail mirrors Kernel.TryTailCall: a tail call is accepted inside an
// event when nothing but earlier tail calls is pending at the current
// time, and then holds exactly the position of a zero-delay event.
func (o *orderOracle) TryTail(id int) bool {
	if !o.inEvent {
		return false
	}
	for _, e := range o.pend {
		if e.t == o.now && !e.tail {
			return false
		}
	}
	o.insert(oracleEvent{t: o.now, id: id, tail: true})
	return true
}

func (o *orderOracle) runWhile(ok func(t Time) bool) {
	for len(o.pend) > 0 && ok(o.pend[0].t) {
		e := o.pend[0]
		o.pend = o.pend[1:]
		o.now = e.t
		o.inEvent = true
		o.fire(e.id)
		o.inEvent = false
	}
}

func (o *orderOracle) Run() { o.runWhile(func(Time) bool { return true }) }

func (o *orderOracle) RunUntil(d Time) {
	o.runWhile(func(t Time) bool { return t <= d })
	if o.now < d {
		o.now = d
	}
}

func (o *orderOracle) Reset()       { o.now, o.pend = 0, nil }
func (o *orderOracle) Pending() int { return len(o.pend) }

// kernelDriver adapts a Kernel to the scheduler surface the order program
// drives; every event it fires carries its program id in payload a (typed)
// or in the closure (untyped).
type kernelDriver struct {
	k    *Kernel
	h    HandlerID
	fire func(id int)
}

func newKernelDriver() *kernelDriver {
	d := &kernelDriver{k: NewKernel()}
	d.h = d.k.RegisterHandler(d)
	return d
}

func (d *kernelDriver) HandleEvent(_ uint8, a, _ int64) { d.fire(int(a)) }

func (d *kernelDriver) Now() Time { return d.k.Now() }

func (d *kernelDriver) At(t Time, id int, typed bool) {
	if typed {
		d.k.AtEvent(t, d.h, 0, int64(id), 0)
		return
	}
	d.k.At(t, func() { d.fire(id) })
}

func (d *kernelDriver) TryTail(id int) bool { return d.k.TryTailCall(d.h, 0, int64(id), 0) }
func (d *kernelDriver) Run()                { d.k.Run() }
func (d *kernelDriver) RunUntil(t Time)     { d.k.RunUntil(t) }
func (d *kernelDriver) Reset()              { d.k.Reset() }
func (d *kernelDriver) Pending() int        { return d.k.Pending() }

type scheduler interface {
	Now() Time
	At(t Time, id int, typed bool)
	TryTail(id int) bool
	Run()
	RunUntil(t Time)
	Reset()
	Pending() int
}

// orderDelays is the delay palette of the order program. Zero delays land
// in the band; repeated small delays from different firing times collide
// on exact timestamps; the large ones reach the queue's high buckets.
var orderDelays = [...]Time{
	0, 0, 1, 2, Nanosecond, Nanosecond, 3 * Nanosecond, 64 * Nanosecond,
	Microsecond, 5 * Microsecond, Millisecond, 1 << 40,
}

// orderProgram is a deterministic scheduling program decoded from bytes.
// Top-level ops push batches, run to a deadline (idle advances
// included), drain, or Reset mid-stream; every event, when it fires,
// schedules children chosen from the bytes by the event's id. The same
// program driven through two schedulers must produce the same trace.
type orderProgram struct {
	data  []byte
	s     scheduler
	ids   int // ids handed out so far
	trace []orderStep
	cov   orderCoverage
}

// orderStep is one trace entry: an event firing (id >= 0) or a
// tail-call attempt's outcome (id < 0), with the clock reading.
type orderStep struct {
	t  Time
	id int
}

// orderCoverage counts the situations a program reached, so the property
// test can assert its random programs exercise every case.
type orderCoverage struct {
	tails, idleThenPush, resetsPending, runUntils int
}

const orderMaxEvents = 3000

func (p *orderProgram) byteAt(id, j int) byte {
	if len(p.data) == 0 {
		return 0
	}
	h := uint32(id)*2654435761 + uint32(j)*40503
	return p.data[(h>>8)%uint32(len(p.data))] ^ byte(h)
}

// schedule queues a new event d after now, typed or as a closure.
func (p *orderProgram) schedule(d Time, typed bool) {
	if p.ids >= orderMaxEvents {
		return
	}
	id := p.ids
	p.ids++
	p.s.At(p.s.Now()+d, id, typed)
}

func (p *orderProgram) fire(id int) {
	p.trace = append(p.trace, orderStep{p.s.Now(), id})
	n := int(p.byteAt(id, 0) % 4)
	for c := 1; c <= n; c++ {
		b := p.byteAt(id, c)
		typed := b&1 == 1
		d := orderDelays[int(b>>1)%len(orderDelays)]
		if typed && d == 0 && b&0x80 != 0 && p.ids < orderMaxEvents {
			tid := p.ids
			p.ids++
			ok := p.s.TryTail(tid)
			p.trace = append(p.trace, orderStep{p.s.Now(), -1 - tid})
			if ok {
				p.cov.tails++
				continue
			}
			p.s.At(p.s.Now(), tid, true)
			continue
		}
		p.schedule(d, typed)
	}
}

// run interprets the top-level ops in p.data and returns the trace.
func (p *orderProgram) run() []orderStep {
	p.s.Reset()
	idle := false // the last op was a RunUntil that moved the clock
	for i := 0; i+1 < len(p.data) && i < 64; i += 2 {
		op, arg := p.data[i], p.data[i+1]
		switch op % 5 {
		case 0, 1: // a batch of pushes from the top level
			if idle {
				p.cov.idleThenPush++
			}
			for j := 0; j <= int(arg%8); j++ {
				b := p.byteAt(int(arg)+j, 7)
				p.schedule(orderDelays[int(b>>1)%len(orderDelays)], b&1 == 1)
			}
		case 2, 3: // run to a deadline, possibly past every event
			before := p.s.Now()
			p.s.RunUntil(before + orderDelays[int(arg)%len(orderDelays)]*Time(1+arg>>4))
			p.cov.runUntils++
			idle = p.s.Now() > before
			p.trace = append(p.trace, orderStep{p.s.Now(), -1 << 30})
			continue
		case 4:
			if arg%2 == 0 {
				p.s.Run()
			} else {
				if p.s.Pending() > 0 {
					p.cov.resetsPending++
				}
				p.s.Reset()
			}
			p.trace = append(p.trace, orderStep{p.s.Now(), -1 << 30})
		}
		idle = false
	}
	p.s.Run()
	return p.trace
}

// checkOrder runs the program on a fresh kernel and on the oracle and
// fails on the first diverging trace entry.
func checkOrder(t *testing.T, data []byte) orderCoverage {
	t.Helper()
	kd := newKernelDriver()
	kp := &orderProgram{data: data, s: kd}
	kd.fire = kp.fire
	got := kp.run()

	o := &orderOracle{}
	op := &orderProgram{data: data, s: o}
	o.fire = op.fire
	want := op.run()

	if !reflect.DeepEqual(got, want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		t.Fatalf("kernel trace diverges from the (t, seq) oracle at entry %d of %d/%d: got %v, want %v",
			n, len(got), len(want), got[n:min(n+4, len(got))], want[n:min(n+4, len(want))])
	}
	if kd.Pending() != 0 {
		t.Fatalf("pending = %d after the final Run, want 0", kd.Pending())
	}
	return kp.cov
}

// TestEventQueueOrderProperty runs random scheduling programs through the
// kernel and the sorted oracle and requires identical traces. It also
// requires the programs, in aggregate, to reach every case the queue must
// get right: tail calls, pushes right after an idle RunUntil advance, and
// Reset with events still queued.
func TestEventQueueOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var cov orderCoverage
	for i := 0; i < 300; i++ {
		data := make([]byte, 8+rng.Intn(120))
		rng.Read(data)
		c := checkOrder(t, data)
		cov.tails += c.tails
		cov.idleThenPush += c.idleThenPush
		cov.resetsPending += c.resetsPending
		cov.runUntils += c.runUntils
	}
	if cov.tails == 0 || cov.idleThenPush == 0 || cov.resetsPending == 0 || cov.runUntils == 0 {
		t.Fatalf("random programs missed a case: %+v", cov)
	}
}

// FuzzEventQueueOrder is TestEventQueueOrderProperty under the fuzzer.
// The seed corpus lives in testdata/fuzz/FuzzEventQueueOrder.
func FuzzEventQueueOrder(f *testing.F) {
	f.Add([]byte{0, 7, 2, 3, 0, 200, 4, 1, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkOrder(t, data)
	})
}

// TestRunUntilThenSchedule pins the idle-advance edge of the queue: after
// RunUntil moves the clock past the last fired event, the queue's
// reference time lags now. Nothing may then read as queued at now (so the
// band and tail calls work as usual), and later pushes must still fire in
// (t, scheduling order).
func TestRunUntilThenSchedule(t *testing.T) {
	k := NewKernel()
	var order []int
	rec := k.RegisterHandler(&recordingHandler{order: &order})
	at := func(tm Time, id int) { k.At(tm, func() { order = append(order, id) }) }

	at(10, 0)
	at(1000, 5)
	k.RunUntil(500)
	if k.Now() != 500 || k.Pending() != 1 {
		t.Fatalf("after RunUntil: now %v pending %d, want 500ps and 1", k.Now(), k.Pending())
	}
	at(1000, 6)        // ties with 5, scheduled later
	at(501, 2)         // earlier than everything queued
	at(999, 4)         // same bucket as 1000 relative to the last fired time
	k.At(500, func() { // at now: band
		order = append(order, 1)
		if !k.TryTailCall(rec, 0, 3, 0) {
			t.Error("TryTailCall refused although nothing is queued at now")
		}
	})
	k.AtEvent(1000, rec, 0, 7, 0)
	k.Run()

	want := []int{0, 1, 3, 2, 4, 5, 6, 7}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("execution order %v, want %v", order, want)
	}
	if got := k.Stats().TimestampTies; got != 2 {
		t.Fatalf("TimestampTies = %d, want 2 (events 6 and 7 tie with 5)", got)
	}
}
