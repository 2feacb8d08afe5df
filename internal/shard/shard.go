// Package shard provides per-CPU-slot sharded counters for read-side
// lock-free hot paths, in the tradition of the kernel's percpu_counter:
// writers update a slot-private cache-line-padded cell chosen by a cheap
// per-goroutine hash, and readers fold the cells on demand. Folding is
// exact — every increment lands in exactly one cell — so securityfs
// totals built from sharded counters never drift, while concurrent
// writers on different CPUs stop bouncing a shared cache line.
package shard

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// nSlots is the slot count: the CPU count rounded up to a power of two,
// floored at 8 so low-CPU boxes still spread bursty goroutine sets, and
// capped so counters stay small on very wide machines.
var nSlots = func() int {
	n := runtime.NumCPU()
	if n < 8 {
		n = 8
	}
	if n > 128 {
		n = 128
	}
	s := 1
	for s < n {
		s <<= 1
	}
	return s
}()

// Slots reports the per-counter cell count.
func Slots() int { return nSlots }

// Slot returns the calling goroutine's preferred cell index. Go exposes
// no CPU or goroutine id, so the hash key is the address of a stack
// variable: distinct goroutines run on distinct stacks, which spreads
// concurrent writers across cells the way a per-CPU pointer would. The
// address is that of the caller's frame, so one goroutine calling from
// different call depths lands in different cells, and the mapping also
// changes when its stack grows or moves. That only re-distributes
// future increments, never loses one; but a caller must not assume one
// goroutine's successive calls share a cell.
func Slot() int {
	var marker byte
	h := uint64(uintptr(unsafe.Pointer(&marker)))
	h ^= h >> 17
	h *= 0x9E3779B97F4A7C15 // Fibonacci multiplier: mixes the stack-offset bits
	h ^= h >> 29
	return int(h & uint64(nSlots-1))
}

// cell is one counter slot, padded out to its own cache line so
// neighbouring slots never false-share.
type cell struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a sharded monotonic counter. The zero value is unusable;
// build one with NewCounter. Counter values share their cells when
// copied, like a slice.
type Counter struct {
	cells []cell
}

// NewCounter allocates a counter with one cell per slot.
func NewCounter() Counter { return Counter{cells: make([]cell, nSlots)} }

// Add increments the calling goroutine's cell.
func (c *Counter) Add(n uint64) { c.cells[Slot()].v.Add(n) }

// Load folds the cells into the exact total.
func (c *Counter) Load() uint64 {
	var total uint64
	for i := range c.cells {
		total += c.cells[i].v.Load()
	}
	return total
}
