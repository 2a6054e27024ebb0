package main

import (
	"math"
	"testing"
	"time"
)

// A phase's scale is refNominal over the median unit since its mark, so
// a host running at half speed doubles both the phase's times and the
// units, and the scaled time does not move.
func TestSpeedScaleCancelsHostSpeed(t *testing.T) {
	m := newSpeedMeter()
	m.samples = []time.Duration{time.Second} // an earlier phase
	mk := m.mark()
	m.samples = append(m.samples, 2*refNominal, 2*refNominal, 9*refNominal)
	if got := m.scale(mk); got != 0.5 {
		t.Fatalf("scale = %v, want 0.5 (refNominal over the median unit since the mark)", got)
	}
	measured := 30 * time.Millisecond // at half speed; 15 ms at the reference speed
	if got := float64(measured) / float64(time.Millisecond) * m.scale(mk); got != 15 {
		t.Fatalf("scaled time = %v ms, want 15", got)
	}
}

// Units run on the meter are counted, and their CPU is what a phase
// subtracts from its process CPU.
func TestSpeedMeterCountsItsOwnCPU(t *testing.T) {
	m := newSpeedMeter()
	mk := m.mark()
	for i := 0; i < 3; i++ {
		m.sample()
	}
	if n := len(m.samples); n != 3 {
		t.Fatalf("%d samples, want 3", n)
	}
	var sum time.Duration
	for _, d := range m.samples {
		if d <= 0 {
			t.Fatalf("unit took %v of thread CPU", d)
		}
		sum += d
	}
	if got := m.spentSince(mk); got != sum {
		t.Fatalf("spentSince = %v, want the units' sum %v", got, sum)
	}
	if s := m.scale(mk); s <= 0 || math.IsInf(s, 0) || math.IsNaN(s) {
		t.Fatalf("scale = %v", s)
	}
}

// The reference does the same work on every unit: each unit sorts the
// same numbers, so a second unit leaves what the first one did.
func TestReferenceUnitIsFixedWork(t *testing.T) {
	s := newRefState()
	s.unit()
	first := append([]int32(nil), s.ints...)
	s.unit()
	for i := range first {
		if s.ints[i] != first[i] {
			t.Fatalf("units sorted different numbers at %d", i)
		}
	}
}

// A nil meter measures nothing and costs nothing.
func TestNilSpeedMeter(t *testing.T) {
	var m *speedMeter
	m.sample()
	if mk := m.mark(); mk != (speedMark{}) {
		t.Fatalf("mark = %+v", mk)
	}
	if d := m.spentSince(speedMark{}); d != 0 {
		t.Fatalf("spentSince = %v", d)
	}
}
