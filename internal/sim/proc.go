package sim

// Proc is a coroutine running on the kernel: a goroutine that alternates
// control with the kernel so that exactly one of (kernel, some proc) is
// executing at any instant. Procs give model code (MPI ranks, traffic
// generators) a natural blocking style — Sleep, Wait — on top of the
// event queue, with fully deterministic scheduling.
type Proc struct {
	k      *Kernel
	resume chan struct{}
	// resumeFn is the one closure that hands control to this proc,
	// allocated once at spawn. Everything that schedules a resume —
	// SpawnAt, Sleep, Signal.Fire — reuses it, so waking a proc never
	// allocates: Signal.Fire sits on the fabric's packet-delivery hot
	// path, where a per-waiter closure would be a heap hit per message.
	resumeFn func()
	done     bool
}

// Kernel returns the kernel this proc runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Done reports whether the proc body has returned.
func (p *Proc) Done() bool { return p.done }

// Spawn starts fn as a new proc at the current virtual time. fn begins
// executing when the kernel reaches the spawn event; Spawn itself returns
// immediately.
func (k *Kernel) Spawn(fn func(p *Proc)) *Proc {
	return k.SpawnAt(k.now, fn)
}

// SpawnAt starts fn as a new proc at absolute virtual time t.
func (k *Kernel) SpawnAt(t Time, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, resume: make(chan struct{})}
	p.resumeFn = func() { k.switchTo(p) }
	k.nProcs++
	k.stats.ProcsSpawned++
	//simlint:allow detflow coroutine handoff: exactly one of (kernel, proc) runs at a time, order fixed by the event queue
	go func() {
		<-p.resume // wait for the kernel to hand us control the first time
		fn(p)
		p.done = true
		k.nProcs--
		k.parked <- struct{}{} // final handback; never resumed again
	}()
	k.At(t, p.resumeFn)
	return p
}

// switchTo transfers control from the kernel to p and blocks until p parks
// (or finishes). Must only be called from kernel context (inside an event).
func (k *Kernel) switchTo(p *Proc) {
	k.stats.ProcSwitches++
	p.resume <- struct{}{}
	<-k.parked
}

// park transfers control from the proc back to the kernel and blocks until
// the kernel resumes this proc again.
func (p *Proc) park() {
	p.k.parked <- struct{}{}
	<-p.resume
}

// Sleep blocks the proc for duration d of virtual time.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		// Even a zero-length sleep yields: the proc re-enters the event
		// queue so same-time events scheduled earlier run first.
		d = 0
	}
	p.k.After(d, p.resumeFn)
	p.park()
}

// Yield lets all other events at the current timestamp run, then resumes.
func (p *Proc) Yield() { p.Sleep(0) }

// Wait blocks the proc until s fires. If s has already fired it returns
// immediately without yielding.
func (p *Proc) Wait(s *Signal) {
	if s.fired {
		return
	}
	s.waiters = append(s.waiters, p)
	p.park()
}

// WaitAll blocks until every signal in sigs has fired.
func (p *Proc) WaitAll(sigs ...*Signal) {
	for _, s := range sigs {
		p.Wait(s)
	}
}

// Signal is a one-shot broadcast event. The zero value is ready to use.
// Procs Wait on it; any model code (kernel or proc context) Fires it.
// Waiters are resumed via fresh kernel events, preserving determinism.
type Signal struct {
	fired   bool
	waiters []*Proc
}

// NewSignal returns an unfired signal.
func NewSignal() *Signal { return &Signal{} }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Fire marks the signal fired and schedules every waiter to resume at the
// current virtual time. Firing an already-fired signal is a no-op. Fire is
// allocation-free: each waiter is scheduled via its spawn-time resumeFn,
// so firing from the packet-delivery hot path never touches the heap.
//
//simlint:hotpath
func (s *Signal) Fire(k *Kernel) {
	if s.fired {
		return
	}
	s.fired = true
	for _, w := range s.waiters {
		k.At(k.now, w.resumeFn)
	}
	s.waiters = nil
}
