package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host speed. The benchmark runs on shared virtual machines whose CPU
// speed moves by a fifth or more within seconds as neighbours come and
// go, and a time taken on such a machine says as much about the
// neighbours as about the program. So a run measures the host's speed
// alongside the program: it interleaves a fixed reference computation,
// written here and independent of the program, with the program's work,
// times each unit of it in thread CPU time (so a unit waiting for a
// processor is not counted), and reports every time metric scaled to
// the speed at which one unit takes refNominal:
//
//	reported = measured × refNominal / median(units of the same phase)
//
// A change to the program moves the reported time as it moves the
// measured one; a change in the host's speed moves the program and the
// reference alike and cancels. The reference does what the program's
// hot paths do: it sorts, updates a table much larger than the cache at
// random, and looks up string keys in a map.
const refNominal = 4 * time.Millisecond

const (
	refSortLen  = 1 << 14
	refTableLen = 1 << 19 // 4 MiB of uint64
	refUpdates  = 1 << 15
	refKeys     = 2048
)

// refState is the reference computation's working set, allocated once
// so a unit allocates nothing.
type refState struct {
	ints  []int32
	table []uint64
	keys  []string
	m     map[string]uint64
	sink  uint64
}

func newRefState() *refState {
	s := &refState{
		ints:  make([]int32, refSortLen),
		table: make([]uint64, refTableLen),
		m:     make(map[string]uint64, refKeys),
	}
	for i := 0; i < refKeys; i++ {
		k := fmt.Sprintf("v%07d", i*7919)
		s.keys = append(s.keys, k)
		s.m[k] = 0
	}
	return s
}

// unit runs the reference computation once. It does the same work
// every time.
func (s *refState) unit() {
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range s.ints {
		s.ints[i] = int32(next())
	}
	sort.Slice(s.ints, func(i, j int) bool { return s.ints[i] < s.ints[j] })
	for i := 0; i < refUpdates; i++ {
		v := next()
		s.table[v&(refTableLen-1)] += v
	}
	for i, k := range s.keys {
		s.m[k] += uint64(i)
	}
	for _, k := range s.keys {
		s.sink += s.m[k]
	}
}

// threadCPU is the calling thread's CPU time so far.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// speedMeter runs reference units and keeps their times. The methods
// of a nil meter do nothing, for callers that do not measure.
type speedMeter struct {
	mu      sync.Mutex
	ref     *refState
	samples []time.Duration
	spent   time.Duration // thread CPU the units took, in total
}

func newSpeedMeter() *speedMeter { return &speedMeter{ref: newRefState()} }

// sample runs one reference unit on a thread of its own for the
// duration, so the thread's CPU clock times the unit alone.
func (m *speedMeter) sample() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	runtime.LockOSThread()
	t0 := threadCPU()
	m.ref.unit()
	d := threadCPU() - t0
	runtime.UnlockOSThread()
	m.samples = append(m.samples, d)
	m.spent += d
}

// speedMark is the meter's state at the start of a phase.
type speedMark struct {
	n     int
	spent time.Duration
}

func (m *speedMeter) mark() speedMark {
	if m == nil {
		return speedMark{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return speedMark{len(m.samples), m.spent}
}

// scale is the factor that brings a time measured since mk to the
// reference speed: refNominal over the median unit since mk.
func (m *speedMeter) scale(mk speedMark) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	med := quantile(ms(m.samples[mk.n:]), 0.5)
	return float64(refNominal) / float64(time.Millisecond) / med
}

// unitMS is the median reference unit of the whole run.
func (m *speedMeter) unitMS() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return quantile(ms(m.samples), 0.5)
}

// spentSince is the CPU the units took since mk, which a phase
// subtracts from the process CPU it measured.
func (m *speedMeter) spentSince(mk speedMark) time.Duration {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.spent - mk.spent
}

// setupSamples is how many reference units follow each set-up.
const setupSamples = 3

func sampleSetup(sp *speedMeter) {
	for i := 0; i < setupSamples; i++ {
		sp.sample()
	}
}
