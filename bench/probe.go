package main

import (
	"syscall"
	"time"
	"unsafe"
)

// hostProbe times a fixed computation that has nothing to do with the
// archive: a chase of dependent loads through a 16 MiB cycle, which runs
// at the speed of the host's memory as this guest sees it.
//
// The shared host this benchmark runs on slows down by 15-25% for
// minutes at a time, every workload alike and CPU time in step with
// wall time, while an integer loop stays within 2%: neighbours
// competing for cache and memory. Nothing computed inside a run removes
// that, because whole runs fall into a slow spell. The probe does fall
// into it too: over forty runs of one binary in such an hour, dividing
// each block's times by the probe samples taken at its two ends cut the
// run-to-run spread of ops_s from 12%, 12%, 26% and 11% (browse, report,
// ingest, mixed) to 7%, 6%, 10% and 9%. An integer loop and a 16 MiB
// copy were tried beside it and did worse.
//
// The cycle is mapped outside the Go heap, so it neither moves the
// collector's pacing nor counts as the archive's allocation.
type hostProbe struct {
	next []uint32
	at   uint32
}

const (
	probeLen   = 4 << 20 // uint32s: 16 MiB
	probeLoads = 100_000 // per sample: about 15 ms

	// refLoadNs is the probe's result on the reference host in its quiet
	// state. Time metrics are reported as measured x refLoadNs / probe:
	// what they would read at that memory speed.
	refLoadNs = 150.0
)

func newHostProbe() (*hostProbe, error) {
	b, err := syscall.Mmap(-1, 0, probeLen*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	p := &hostProbe{next: unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), probeLen)}
	// Sattolo's algorithm: one cycle through every element, so the chase
	// never settles into a loop that fits a cache.
	for i := range p.next {
		p.next[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := probeLen - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(i)
		p.next[i], p.next[j] = p.next[j], p.next[i]
	}
	return p, nil
}

// loadNs takes one sample: nanoseconds per dependent load.
func (p *hostProbe) loadNs() float64 {
	t0 := time.Now()
	j := p.at
	for i := 0; i < probeLoads; i++ {
		j = p.next[j]
	}
	p.at = j
	return float64(time.Since(t0)) / probeLoads
}

// scale is the factor that takes a time measured between two probe
// samples to the reference host's speed.
func scale(before, after float64) float64 { return refLoadNs / ((before + after) / 2) }
