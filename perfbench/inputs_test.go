package main

import (
	"reflect"
	"testing"
	"time"
)

func schedulesFor(t *testing.T, seed int64) (*graphInput, []request, []request) {
	t.Helper()
	in, err := makeGraphInput(seed, saltGraph, 8)
	if err != nil {
		t.Fatal(err)
	}
	nv := 0
	open := makeSchedule(rngFor(seed, saltOpen), in, scheduleSpec{Rate: 300, Duration: 2 * time.Second, Mixed: true}, &nv)
	peak := makeSchedule(rngFor(seed, saltPeak), in, scheduleSpec{Count: 200, Mixed: true}, &nv)
	return in, open, peak
}

// The same seed gives identical edges, schedules and request bodies; a
// different seed gives different ones.
func TestSeedDeterminesInputs(t *testing.T) {
	in1, open1, peak1 := schedulesFor(t, 7)
	in2, open2, peak2 := schedulesFor(t, 7)
	if !reflect.DeepEqual(in1.edges, in2.edges) || !reflect.DeepEqual(in1.byOutDeg, in2.byOutDeg) {
		t.Fatal("same seed, different edges")
	}
	if !reflect.DeepEqual(open1, open2) || !reflect.DeepEqual(peak1, peak2) {
		t.Fatal("same seed, different schedules or bodies")
	}

	in3, open3, peak3 := schedulesFor(t, 8)
	if reflect.DeepEqual(in1.edges, in3.edges) {
		t.Fatal("different seeds, same edges")
	}
	if reflect.DeepEqual(open1, open3) || reflect.DeepEqual(peak1, peak3) {
		t.Fatal("different seeds, same schedules")
	}
}

func TestScheduleShape(t *testing.T) {
	in, open, peak := schedulesFor(t, 3)
	if len(peak) != 200 {
		t.Fatalf("closed-loop schedule has %d requests, want 200", len(peak))
	}
	// Poisson at 300/s for 2 s: about 600 arrivals, in time order.
	if len(open) < 450 || len(open) > 750 {
		t.Fatalf("open-loop schedule has %d requests for 600 expected", len(open))
	}
	var kinds [numEndpoints]int
	fresh, ingested := 0, 0
	known := map[string]bool{}
	for _, v := range in.byOutDeg {
		known[v] = true
	}
	for i, r := range open {
		if i > 0 && r.At < open[i-1].At {
			t.Fatal("arrivals out of order")
		}
		kinds[r.Kind]++
		for _, e := range r.Edges {
			ingested++
			if !known[e.Src] || !known[e.Dst] {
				fresh++
			}
		}
	}
	for k, n := range kinds {
		if n == 0 {
			t.Errorf("no request of kind %d in the mixed schedule", k)
		}
	}
	if share := float64(kinds[epIngest]) / float64(len(open)); share < 0.05 || share > 0.15 {
		t.Errorf("ingest share %.3f, want about 0.10", share)
	}
	if share := float64(fresh) / float64(ingested); share < 0.02 || share > 0.12 {
		t.Errorf("%.3f of ingested edges name a new vertex, want about 1/16", share)
	}
}
