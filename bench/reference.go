package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a few CPUs of a shared machine, and
// its speed changes with what the neighbours do: the same deterministic
// exploration takes 0.55 s or 0.85 s depending on the minute, CPU time
// moving with wall time, and the medians of whole runs taken ten minutes
// apart differ by a fifth. No statistic over one run removes that, so the
// benchmark measures the host beside the program: between the timed
// operations it times a fixed computation of its own, the reference kernel,
// and reports every timing in seconds of a host on which that kernel takes
// referenceNominal seconds. The kernel shares no code with the engine, so
// a change to the engine moves the engine's timings and not the kernel's.

// referenceNominal is the kernel's time on the reference host: this host's
// median in a quiet half hour.
const referenceNominal = 0.024

const (
	refALUSteps   = 6_500_000
	refTableWords = 8 << 20 // 32 MiB of uint32: past the last-level cache
	refChaseSteps = 64_000
)

// referenceTableMiB is what the kernel's table adds to the resident set.
const referenceTableMiB = refTableWords * 4 >> 20

// reference is the kernel's state, built once per process, and the samples
// taken so far. The kernel is integer hashing in registers followed by a
// walk of dependent loads through a table the caches do not hold, about
// half of its time each: over half an hour of this host's moods that mix
// followed the engine's time as closely as any that also allocated or used
// hash maps, and it leaves the collector alone. The table is mapped outside
// the Go heap, where it would count as live data and halve the number of
// collections a small exploration runs.
type reference struct {
	table   []uint32
	mapped  []byte
	sink    uint64
	samples []float64
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func newReference() (*reference, error) {
	mapped, err := syscall.Mmap(-1, 0, refTableWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the reference kernel's table: %w", err)
	}
	r := &reference{mapped: mapped, table: unsafe.Slice((*uint32)(unsafe.Pointer(&mapped[0])), refTableWords)}
	// Sattolo's shuffle: the permutation is one cycle, so a walk never
	// settles into a short loop that fits a cache.
	for i := range r.table {
		r.table[i] = uint32(i)
	}
	x := uint64(99)
	for i := len(r.table) - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		r.table[i], r.table[j] = r.table[j], r.table[i]
	}
	return r, nil
}

// close unmaps the table.
func (r *reference) close() error {
	r.table = nil
	return syscall.Munmap(r.mapped)
}

// sample runs the kernel once and records how long it took.
func (r *reference) sample() {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < refALUSteps; i++ {
		x = xorshift(x)
	}
	p := uint32(x % refTableWords)
	for i := 0; i < refChaseSteps; i++ {
		p = r.table[p]
	}
	r.sink += x + uint64(p)
	r.samples = append(r.samples, time.Since(start).Seconds())
}
