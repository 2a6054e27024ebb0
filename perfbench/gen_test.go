package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func sleepyServer(t *testing.T, d time.Duration) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(d)
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func evenSchedule(n int, gap time.Duration) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{At: time.Duration(i) * gap, Method: "GET", Path: "/at?src=a&dst=b"}
	}
	return reqs
}

// Against a handler slower than the arrival gap, one sender falls
// behind, and the latency it reports includes the time each request
// waited for its turn: it grows along the schedule instead of staying
// at the handler's service time.
func TestOpenLoopLatencyIncludesScheduleLag(t *testing.T) {
	const service, gap, n = 20 * time.Millisecond, 5 * time.Millisecond, 20
	g := newGenerator(sleepyServer(t, service).URL, 1, nil)
	defer g.close()
	p := g.runOpen(evenSchedule(n, gap), time.Minute)
	if p.Offered() != 1 {
		t.Fatalf("offered %v with a minute of grace", p.Offered())
	}
	last := p.Out[n-1]
	// Request i cannot finish before (i+1)·service, and it was due at
	// i·gap, so the last one waited at least n·service − (n−1)·gap.
	minLag := n*service - (n-1)*gap
	if got := last.Latency(); got < minLag {
		t.Fatalf("last latency %v, want at least %v (schedule lag not counted)", got, minLag)
	}
	if sentLate := last.SentAt.Sub(last.Intended); sentLate < minLag-service {
		t.Fatalf("last request sent %v late, want at least %v", sentLate, minLag-service)
	}
	if first := p.Out[0].Latency(); first > last.Latency()/2 {
		t.Fatalf("first latency %v not below half the last %v", first, last.Latency())
	}
}

// A generator that cannot keep to its schedule drops what it could not
// send in time, and the run is reported invalid.
func TestUnderOfferedRunIsInvalid(t *testing.T) {
	g := newGenerator(sleepyServer(t, 20*time.Millisecond).URL, 1, nil)
	defer g.close()
	p := g.runOpen(evenSchedule(40, time.Millisecond), 10*time.Millisecond)
	if p.Offered() >= minOffered {
		t.Fatalf("offered %v against a handler 20x slower than the schedule", p.Offered())
	}
	rep := newReport()
	checkOffered(rep, p)
	if rep.correct {
		t.Fatal("an under-offered run was not marked invalid")
	}

	ok := newReport()
	checkOffered(ok, &phase{Out: []outcome{{Sent: true}, {Sent: true}}})
	if !ok.correct {
		t.Fatal("a fully offered run was marked invalid")
	}
}

func TestClosedLoopSendsEverything(t *testing.T) {
	g := newGenerator(sleepyServer(t, time.Millisecond).URL, 2, func(i int) bool { return i == 3 })
	defer g.close()
	p := g.runClosed(evenSchedule(10, 0))
	for i, o := range p.Out {
		if !o.Sent || !o.OK() {
			t.Fatalf("request %d: %+v", i, o)
		}
		if (o.Body != nil) != (i == 3) {
			t.Fatalf("request %d: body kept = %v", i, o.Body != nil)
		}
	}
}
