package sim

import (
	"fmt"
	"math/bits"
)

// Handler receives typed events scheduled with AtEvent/AfterEvent. It is
// the allocation-free alternative to closure callbacks: the scheduler
// stores a registered handler's index plus a small scalar payload inline
// in the event, so hot model code (the network fabric) schedules without
// touching the heap. kind discriminates event types within one handler; a
// and b carry whatever the handler needs to find its state again (indexes
// into model-owned arenas, typically).
type Handler interface {
	HandleEvent(kind uint8, a, b int64)
}

// HandlerID names a handler registered with RegisterHandler. IDs are
// stored in events instead of the interface value itself so the event
// struct stays small and carries only one pointer word.
type HandlerID int32

// Typed-event payload packing. The whole (kind, handler, a, b) payload is
// packed into one uint64 so the event struct stays small (24 bytes) with a
// single pointer field: structs with pointers that stay ≤32 bytes are
// copied with inline moves, while anything larger goes through a
// typedmemmove call per copy — measured at 3× the per-event cost on the
// former 4-ary heap's sift swaps, and the radix queue's refill copies events
// just as often. The packing caps a
// kernel at 256 handlers, 256 kinds per handler, and payload scalars in
// [0, 2^24); AtEvent panics past any of these limits (they are far above
// what any realistic fabric needs — a and b index servers and live
// packets).
const (
	payloadBits = 24
	maxPayload  = 1<<payloadBits - 1
	maxHandlers = 256
)

// event is one scheduled callback: either a closure (fn) or, when fn is
// nil, the packed typed payload in pay. It is 24 bytes with one pointer
// word; keep it at or under 32 (see above) — refill copies every event it
// redistributes.
type event struct {
	t   Time
	fn  func()
	pay uint64 // kind<<56 | handler<<48 | a<<24 | b
}

// eventQueue is a monotone radix queue of future events. last is the time
// of the most recently popped event, and the kernel never schedules before
// now >= last, so every queued t is >= last. Event e lives in bucket
// bits.Len64(t^last): bucket 0 holds events at exactly last, and bucket
// i > 0 holds events whose highest bit differing from last is bit i-1.
// Times are non-negative, so bucket 64 stays empty; the array has 65
// entries because that is Len64's range and lets the compiler drop bounds
// checks.
//
// pop drains bucket 0 FIFO. When it is empty, pop takes the lowest
// non-empty bucket i, advances last to that bucket's minimum, and
// redistributes the bucket into buckets below i (refill); buckets above i
// keep their index because the new last shares every bit at or above i
// with the old one. Each event therefore moves at most 64 times, and in
// practice a few times, instead of paying an O(log n) sift per push and
// per pop.
//
// Exact (t, scheduling order) falls out without a sequence number: pushes
// append, refill walks its bucket front to back and appends to buckets
// that are empty (all buckets below the lowest non-empty one are), so
// every bucket stays in scheduling order, and equal timestamps always
// share a bucket.
type eventQueue struct {
	last Time        // time of the last popped event; every queued t >= last
	head int         // next event to pop from b[0]
	n    int         // queued events
	mask uint64      // bit i-1 set iff bucket i > 0 is non-empty
	b    [65][]event // b[i]: events with bits.Len64(t^last) == i
	low  [65]Time    // low[i]: minimum t in b[i], valid while b[i] is non-empty
}

func (q *eventQueue) len() int { return q.n }

// at reports whether an event is queued at exactly time now.
func (q *eventQueue) at(now Time) bool { return q.head < len(q.b[0]) && q.last == now }

// minTime returns the earliest queued time. The queue must be non-empty.
func (q *eventQueue) minTime() Time {
	if q.head < len(q.b[0]) {
		return q.last
	}
	return q.low[bits.TrailingZeros64(q.mask)+1]
}

// push queues e. e.t must be >= the time of the last popped event.
//
//simlint:hotpath
func (q *eventQueue) push(e event) {
	q.n++
	q.put(e)
}

// put files e into its bucket relative to last.
//
//simlint:hotpath
func (q *eventQueue) put(e event) {
	i := bits.Len64(uint64(e.t ^ q.last))
	q.b[i] = append(q.b[i], e)
	if i == 0 {
		return
	}
	bit := uint64(1) << (i - 1)
	if q.mask&bit == 0 || e.t < q.low[i] {
		q.low[i] = e.t
	}
	q.mask |= bit
}

// pop removes and returns the earliest event, FIFO among equal times. The
// queue must be non-empty.
//
//simlint:hotpath
func (q *eventQueue) pop() event {
	q.n--
	if q.head == len(q.b[0]) {
		i := bits.TrailingZeros64(q.mask) + 1
		src := q.b[i]
		q.last = q.low[i]
		q.mask &^= 1 << (i - 1)
		q.b[i] = src[:0]
		if len(src) == 1 {
			// Shallow-queue fast path: the lone event is the minimum.
			e := src[0]
			src[0] = event{} // release the closure for GC
			return e
		}
		q.refill(src)
	}
	b0 := q.b[0]
	e := b0[q.head]
	b0[q.head] = event{} // release the closure for GC
	q.head++
	if q.head == len(b0) {
		q.b[0] = b0[:0]
		q.head = 0
	}
	return e
}

// refill redistributes the events of a just-emptied bucket relative to
// the new last, in order, then clears the source slots.
//
//simlint:hotpath
func (q *eventQueue) refill(src []event) {
	for _, e := range src {
		q.put(e)
	}
	clear(src) // release closures for GC
}

// reset empties the queue, keeping every bucket's capacity.
func (q *eventQueue) reset() {
	for i := range q.b {
		clear(q.b[i]) // release closures for GC
		q.b[i] = q.b[i][:0]
	}
	clear(q.low[:])
	q.last, q.head, q.n, q.mask = 0, 0, 0, 0
}

// bandEntry is one event in the same-timestamp band: a callback known to
// fire at the current virtual time, so it carries no timestamp (FIFO
// position in the band IS its scheduling order).
type bandEntry struct {
	fn  func()
	pay uint64
}

// band is the same-timestamp insertion band: a FIFO ring of events
// scheduled for the CURRENT virtual time. Scheduling at t == now is the
// hot degenerate case of a DES queue — zero-delay wakes, signal fires, and
// proc handoffs all land there, and their ordering is forced (they always
// run after everything already queued at now, in scheduling order), so
// the band makes them two pointer moves with no bucket bookkeeping. The
// drain rule in step preserves exact (t, scheduling order): queued events
// at the current time were all scheduled before now advanced, so before
// any band entry, and run first; band entries then run in append order.
// The band fully drains before virtual time advances, so the backing
// array is reused forever after warmup.
type band struct {
	buf  []bandEntry
	head int
}

func (b *band) empty() bool { return b.head == len(b.buf) }
func (b *band) len() int    { return len(b.buf) - b.head }

//simlint:hotpath
func (b *band) push(e bandEntry) { b.buf = append(b.buf, e) }

//simlint:hotpath
func (b *band) take() bandEntry {
	e := b.buf[b.head]
	b.buf[b.head] = bandEntry{} // release the closure for GC
	b.head++
	if b.head == len(b.buf) {
		b.buf = b.buf[:0]
		b.head = 0
	}
	return e
}

func (b *band) reset() {
	for i := range b.buf {
		b.buf[i] = bandEntry{}
	}
	b.buf = b.buf[:0]
	b.head = 0
}

// tailCall is a typed event deferred to run immediately after the current
// event's handler returns (see TryTailCall).
type tailCall struct {
	h    HandlerID
	kind uint8
	a, b int64
}

// Kernel is a deterministic discrete-event simulator.
//
// The zero value is not usable; construct with NewKernel. A Kernel is not
// safe for concurrent use: all model code must run on the kernel goroutine
// or inside a Proc it controls.
type Kernel struct {
	now     Time
	events  eventQueue // events after now, plus those at now queued before now advanced
	band    band       // events at t == now, FIFO (see band)
	tail    []tailCall // deferred continuations of the current event
	inEvent bool       // an event handler is currently executing
	// handlers is the typed-event dispatch table, by HandlerID.
	handlers []Handler //simlint:resetsafe registrations survive Reset by contract: warm fabrics keep their HandlerID
	stopped  bool
	parked   chan struct{} //simlint:resetsafe channel identity; parked procs forbid Reset anyway (panic guard)
	nProcs   int           //simlint:resetsafe live procs; Reset panics unless zero, so zero is preserved
	// tieArmed is true when the clock's current reading was set by a queued
	// event (as opposed to an idle RunUntil advance or a fresh kernel),
	// so a further queued event at the same reading is a genuine
	// same-timestamp tie for KernelStats.TimestampTies.
	tieArmed bool
	stats    KernelStats
}

// KernelStats counts kernel-level activity, useful in benchmarks and tests.
type KernelStats struct {
	EventsExecuted uint64
	// TailCalls counts typed events that ran as direct continuations of
	// the event that scheduled them (TryTailCall) instead of through the
	// queue. They do the same model work as a zero-delay event but are
	// not counted in EventsExecuted, which tallies queue traffic.
	TailCalls    uint64
	ProcsSpawned uint64
	ProcSwitches uint64
	// TimestampTies counts queued events that fired at a virtual time some
	// earlier queued event had already fired at — i.e., members beyond the
	// first of each exact-timestamp group. Such groups are the only
	// places where scheduling order (the FIFO tiebreak) rather than
	// physics decides execution order, which makes this the detector for
	// "this run's outcome may depend on event-scheduling details":
	// network.FuseLinks changes WHERE its events are scheduled, so its
	// equivalence tests assert byte-identity exactly when both runs
	// report zero ties. Deliberate zero-delay continuations (the
	// same-timestamp band, tail calls) are not counted — they follow
	// their trigger by construction.
	TimestampTies uint64
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{parked: make(chan struct{})}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Stats returns a copy of the kernel's activity counters.
func (k *Kernel) Stats() KernelStats { return k.stats }

// Pending returns the number of queued events.
func (k *Kernel) Pending() int { return k.events.len() + k.band.len() }

// panicPast reports scheduling before the current time. Outlined from the
// schedulers so the hot typed-event path stays free of fmt in its body.
//
//simlint:cold panic formatting on a model-bug path that never returns
func (k *Kernel) panicPast(t Time) {
	panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
}

// panicPayload reports a typed-event scalar outside the packable range.
//
//simlint:cold panic formatting on a model-bug path that never returns
func panicPayload(a, b int64) {
	panic(fmt.Sprintf("sim: typed-event payload (%d, %d) outside [0, 2^%d)", a, b, payloadBits))
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// that is always a model bug, and silently reordering would break
// determinism guarantees.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		k.panicPast(t)
	}
	if t == k.now {
		k.band.push(bandEntry{fn: fn})
		return
	}
	k.events.push(event{t: t, fn: fn})
}

// After schedules fn to run d after the current time.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// RegisterHandler adds h to the kernel's typed-event dispatch table and
// returns its id. Models register once at construction and schedule with
// the id; registration itself may allocate (table growth) but scheduling
// never does.
func (k *Kernel) RegisterHandler(h Handler) HandlerID {
	if len(k.handlers) >= maxHandlers {
		panic("sim: too many registered handlers")
	}
	k.handlers = append(k.handlers, h)
	return HandlerID(len(k.handlers) - 1)
}

// AtEvent schedules a typed event at absolute time t. It is the
// allocation-free fast path: the handler id and scalar payload are stored
// inline in the event queue, so (unlike At, whose closures escape) nothing
// is heap-allocated in steady state. Ordering is identical to At: events
// fire in (time, scheduling sequence) order regardless of which API queued
// them.
//
//simlint:hotpath
func (k *Kernel) AtEvent(t Time, h HandlerID, kind uint8, a, b int64) {
	if t < k.now {
		k.panicPast(t)
	}
	if uint64(a) > maxPayload || uint64(b) > maxPayload {
		panicPayload(a, b)
	}
	pay := uint64(kind)<<56 | uint64(h)<<48 | uint64(a)<<payloadBits | uint64(b)
	if t == k.now {
		k.band.push(bandEntry{pay: pay})
		return
	}
	k.events.push(event{t: t, pay: pay})
}

// TryTailCall defers a typed event to run as a direct continuation: it
// fires immediately after the currently executing event's handler returns,
// without ever entering the queue. That is exactly the queue position a
// zero-delay AtEvent would occupy — but ONLY when nothing else is pending
// at the current timestamp, so the call succeeds (and returns true) only
// then. On false the caller must schedule normally. Multiple tail calls
// registered during one event run in registration order, still matching
// zero-delay event semantics.
//
//simlint:hotpath
func (k *Kernel) TryTailCall(h HandlerID, kind uint8, a, b int64) bool {
	if !k.inEvent || !k.band.empty() {
		return false
	}
	if k.events.at(k.now) {
		return false
	}
	k.tail = append(k.tail, tailCall{h: h, kind: kind, a: a, b: b})
	return true
}

// AfterEvent schedules a typed event d after the current time.
//
//simlint:hotpath
func (k *Kernel) AfterEvent(d Time, h HandlerID, kind uint8, a, b int64) {
	k.AtEvent(k.now+d, h, kind, a, b)
}

// Stop makes Run or RunUntil return after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// exec runs one event callback, then drains any tail calls it (or its
// continuations) registered.
//
//simlint:hotpath
func (k *Kernel) exec(fn func(), pay uint64) {
	k.stats.EventsExecuted++
	k.inEvent = true
	if fn != nil {
		fn()
	} else {
		k.handlers[pay>>48&0xff].HandleEvent(uint8(pay>>56),
			int64(pay>>payloadBits&maxPayload), int64(pay&maxPayload))
	}
	// Tail calls run back-to-back with the event that registered them;
	// appends during the loop (a continuation registering its own tail
	// call) extend it in order.
	for i := 0; i < len(k.tail); i++ {
		tc := k.tail[i]
		k.stats.TailCalls++
		k.handlers[tc.h].HandleEvent(tc.kind, tc.a, tc.b)
	}
	k.tail = k.tail[:0]
	k.inEvent = false
}

// step executes the earliest event. Returns false when no events remain.
//
// Batch drain of the current timestamp: queued events at t == now first
// (they were scheduled before now advanced), then the band in FIFO order —
// exact (t, scheduling order) without routing zero-delay events through
// the queue. Virtual time advances only once both are empty.
//
//simlint:hotpath
func (k *Kernel) step() bool {
	if k.events.at(k.now) {
		// A queued event at the clock's current reading: if an earlier
		// queued event already fired at this exact time, scheduling order
		// is deciding.
		if k.tieArmed {
			k.stats.TimestampTies++
		}
		e := k.events.pop()
		k.exec(e.fn, e.pay)
		return true
	}
	if !k.band.empty() {
		e := k.band.take()
		k.exec(e.fn, e.pay)
		return true
	}
	if k.events.len() == 0 {
		return false
	}
	e := k.events.pop()
	k.now = e.t
	k.tieArmed = true
	k.exec(e.fn, e.pay)
	return true
}

// Run executes events until the queue drains or Stop is called. It returns
// the final virtual time.
func (k *Kernel) Run() Time {
	k.stopped = false
	for !k.stopped && k.step() {
	}
	return k.now
}

// RunUntil executes events with timestamps ≤ deadline, then advances the
// clock to deadline (even if idle) and returns. Events scheduled beyond the
// deadline remain queued. If Stop ends it early, the clock stays at the
// last event fired, so events still queued before the deadline fire at
// their own times on the next Run.
func (k *Kernel) RunUntil(deadline Time) Time {
	k.stopped = false
	for !k.stopped {
		if k.band.empty() && (k.events.len() == 0 || k.events.minTime() > deadline) {
			break
		}
		k.step()
	}
	if !k.stopped && k.now < deadline {
		k.now = deadline
		k.tieArmed = false // idle advance: nothing fired at this reading
	}
	return k.now
}

// LiveProcs returns the number of spawned procs that have not finished.
// A fully drained kernel with live procs means model code is parked on a
// signal that never fired; such a kernel cannot be safely Reset.
func (k *Kernel) LiveProcs() int { return k.nProcs }

// Reset rewinds the kernel to time zero with an empty queue and zeroed
// stats, retaining registered handlers and all queue capacity. It is the
// reuse path that lets one warm kernel serve many simulation runs without
// reallocating its event storage; handler IDs issued before the reset
// stay valid. Reset panics if live procs remain — their goroutines are
// parked inside model code and would corrupt a new run.
func (k *Kernel) Reset() {
	if k.nProcs != 0 {
		panic(fmt.Sprintf("sim: Reset with %d live procs", k.nProcs))
	}
	k.events.reset()
	k.band.reset()
	k.tail = k.tail[:0]
	k.inEvent = false
	k.now = 0
	k.stopped = false
	k.tieArmed = false
	k.stats = KernelStats{}
}
