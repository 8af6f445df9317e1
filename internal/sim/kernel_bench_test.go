package sim

import (
	"fmt"
	"testing"
)

// BenchmarkKernelSchedule measures one schedule+dispatch cycle through the
// event queue — the kernel's innermost loop. Run with -benchmem: the
// free-list pool and the ScheduleFire fast path exist to drive allocs/op
// toward zero (the seed spent 1 alloc and ~103 ns per cycle on the
// cancellable path; see BENCH_hotpath.json).
func BenchmarkKernelSchedule(b *testing.B) {
	b.Run("schedule", func(b *testing.B) {
		k := NewKernel()
		fn := func() {}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.MustSchedule(1, fn)
			k.Step()
		}
	})
	b.Run("fire", func(b *testing.B) {
		k := NewKernel()
		fn := func() {}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.ScheduleFire(1, fn)
			k.Step()
		}
	})
	b.Run("firearg", func(b *testing.B) {
		k := NewKernel()
		fn := func(any) {}
		arg := &struct{}{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.ScheduleFireArg(1, fn, arg)
			k.Step()
		}
	})
	b.Run("timer", func(b *testing.B) {
		// Timer Reset/fire cycle — the handle fast path protocol
		// timeouts ride (MAC ACK, vote rounds, route expiry).
		k := NewKernel()
		tm := NewTimer(k, func() {})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tm.Reset(1)
			k.Step()
		}
	})
}

// BenchmarkKernelQueueChurn measures a schedule+dispatch cycle against a
// standing population of pending timers — the regime a 100k-node field
// puts the kernel in, where every node holds beacons, backoffs, and epoch
// timers. The wheel pays amortized O(1) per operation, so the cost must
// stay flat as the standing set grows.
func BenchmarkKernelQueueChurn(b *testing.B) {
	for _, standing := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("standing=%d", standing), func(b *testing.B) {
			k := NewKernel()
			fn := func() {}
			// The standing population: far-future timers that never
			// fire during the measurement window.
			for i := 0; i < standing; i++ {
				k.ScheduleFire(1e6+Duration(i), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.ScheduleFire(1e-5, fn)
				k.Step()
			}
		})
	}
}
