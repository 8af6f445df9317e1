package sim

// Timer is a resettable one-shot timer on the simulation clock, the building
// block for protocol timeouts (route expiry, voting-round deadlines, beacon
// periods). The zero value is not usable; use NewTimer.
//
// Timers ride on TimerHandle: arming costs one queue push and Stop
// tombstones the pending event in place.
type Timer struct {
	k    *Kernel
	fn   func()
	wrap func() // built once; Reset would otherwise allocate a closure per arming
	h    TimerHandle
	at   Time
}

// NewTimer returns a stopped timer that runs fn on the kernel when it fires.
func NewTimer(k *Kernel, fn func()) *Timer {
	t := &Timer{k: k, fn: fn}
	t.wrap = func() {
		t.h = TimerHandle{}
		t.fn()
	}
	return t
}

// Reset (re)arms the timer to fire after delay, cancelling any pending
// firing.
func (t *Timer) Reset(delay Duration) {
	t.Stop()
	t.at = t.k.Now() + delay
	t.h = t.k.ScheduleFireHandle(delay, t.wrap)
}

// Stop cancels a pending firing. It reports whether a firing was pending.
func (t *Timer) Stop() bool {
	ok := t.k.CancelHandle(t.h)
	t.h = TimerHandle{}
	return ok
}

// Active reports whether a firing is pending.
func (t *Timer) Active() bool { return t.h.Active() }

// Deadline returns the time of the pending firing; meaningful only while
// Active.
func (t *Timer) Deadline() Time { return t.at }

// Ticker invokes fn every period until stopped. Periods may be jittered per
// tick via the optional jitter function, which returns an extra delay to add
// to the nominal period (protocols use this to avoid synchronized beacon
// collisions). Like Timer, tickers schedule on the handle fast path.
type Ticker struct {
	k       *Kernel
	fn      func()
	period  Duration
	jitter  func() Duration
	h       TimerHandle
	stopped bool
}

// NewTicker returns a started ticker; the first tick fires after an initial
// delay of period (plus jitter).
func NewTicker(k *Kernel, period Duration, jitter func() Duration, fn func()) *Ticker {
	t := &Ticker{k: k, fn: fn, period: period, jitter: jitter}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	d := t.period
	if t.jitter != nil {
		d += t.jitter()
	}
	t.h = t.k.ScheduleFireHandle(d, t.tick)
}

func (t *Ticker) tick() {
	t.h = TimerHandle{}
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

// Stop halts future ticks. A tick currently executing completes.
func (t *Ticker) Stop() {
	t.stopped = true
	t.k.CancelHandle(t.h)
	t.h = TimerHandle{}
}
