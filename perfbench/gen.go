package main

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// seqHeader carries a request's index in its schedule, so the traced
// server wrapper can tie its handler span to the generator's request
// span.
const seqHeader = "X-Bench-Seq"

// outcome is what the generator saw for one scheduled request.
type outcome struct {
	Sent     bool
	Intended time.Time // open loop: the scheduled send time; closed loop: the actual send
	SentAt   time.Time
	Done     time.Time
	Status   int // 0 when the request failed in transport
	Body     []byte
}

// OK reports a 2xx answer.
func (o outcome) OK() bool { return o.Status >= 200 && o.Status < 300 }

// Latency of a sent request is measured from its intended send time,
// so time it spent waiting behind a stalled sender is counted.
func (o outcome) Latency() time.Duration { return o.Done.Sub(o.Intended) }

// phase is one run of the generator over a schedule.
type phase struct {
	Start, End time.Time
	Out        []outcome
}

// Offered is the fraction of scheduled requests that were sent.
func (p *phase) Offered() float64 {
	if len(p.Out) == 0 {
		return 1
	}
	n := 0
	for _, o := range p.Out {
		if o.Sent {
			n++
		}
	}
	return float64(n) / float64(len(p.Out))
}

// rate is the phase's completed (2xx) requests per second, counted in
// windows of length w by completion time; the median over the whole
// windows is reported, so a burst of outside interference that covers
// a minority of them does not move it. A phase shorter than three
// windows reports its plain rate.
func (p *phase) rate(w time.Duration) float64 {
	elapsed := p.End.Sub(p.Start)
	whole := int(elapsed / w)
	counts := make([]float64, whole)
	ok := 0
	for _, o := range p.Out {
		if !o.OK() {
			continue
		}
		ok++
		if k := int(o.Done.Sub(p.Start) / w); k < whole {
			counts[k]++
		}
	}
	if whole < 3 {
		return float64(ok) / elapsed.Seconds()
	}
	return quantile(counts, 0.5) / w.Seconds()
}

// generator drives one server with a fixed set of senders. Each sender
// owns one keep-alive connection and takes requests from the schedule
// in order.
type generator struct {
	base    string
	clients []*http.Client
	// keep reports whether a request's response body is kept for the
	// output checks.
	keep func(i int) bool
}

func newGenerator(base string, senders int, keep func(int) bool) *generator {
	g := &generator{base: base, keep: keep}
	for i := 0; i < senders; i++ {
		g.clients = append(g.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	return g
}

// close drops the senders' idle connections.
func (g *generator) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// runOpen sends each request at its scheduled time, or as soon as a
// sender is free when the generator is behind. A request still unsent
// grace after the last arrival is never sent and counts against the
// offered fraction.
func (g *generator) runOpen(reqs []request, grace time.Duration) *phase {
	p := &phase{Out: make([]outcome, len(reqs))}
	var last time.Duration
	if len(reqs) > 0 {
		last = reqs[len(reqs)-1].At
	}
	p.Start = time.Now()
	cutoff := p.Start.Add(last + grace)
	g.drive(reqs, p, func(i int) (time.Time, bool) {
		due := p.Start.Add(reqs[i].At)
		now := time.Now()
		if now.After(cutoff) {
			return due, false
		}
		waitUntil(due)
		return due, true
	})
	p.End = time.Now()
	return p
}

// spinBefore is how long before a due time the generator stops
// sleeping and polls the clock: a sleeping goroutine wakes up to about
// a millisecond late on a virtual machine, and that lateness would be
// counted in every request's latency.
const spinBefore = 700 * time.Microsecond

func waitUntil(due time.Time) {
	if d := time.Until(due) - spinBefore; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// runClosed sends every request as soon as a sender is free.
func (g *generator) runClosed(reqs []request) *phase {
	p := &phase{Out: make([]outcome, len(reqs))}
	p.Start = time.Now()
	g.drive(reqs, p, func(int) (time.Time, bool) { return time.Now(), true })
	p.End = time.Now()
	return p
}

// drive runs the senders until the schedule is exhausted. wait blocks
// until request i is due and returns its intended time, or false when
// it must not be sent.
func (g *generator) drive(reqs []request, p *phase, wait func(i int) (time.Time, bool)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				intended, ok := wait(i)
				if !ok {
					continue
				}
				p.Out[i] = g.send(c, i, reqs[i], intended)
			}
		}(c)
	}
	wg.Wait()
}

func (g *generator) send(c *http.Client, i int, r request, intended time.Time) outcome {
	o := outcome{Sent: true, Intended: intended, SentAt: time.Now()}
	var body io.Reader
	if r.Body != nil {
		body = bytes.NewReader(r.Body)
	}
	req, err := http.NewRequest(r.Method, g.base+r.Path, body)
	if err != nil {
		o.Done = time.Now()
		return o
	}
	if r.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(seqHeader, strconv.Itoa(i))
	resp, err := c.Do(req)
	if err != nil {
		o.Done = time.Now()
		return o
	}
	var buf []byte
	if g.keep != nil && g.keep(i) {
		buf, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	o.Done = time.Now()
	if err == nil {
		o.Status, o.Body = resp.StatusCode, buf
	}
	return o
}
