package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call it makes. Parent is the span that caused it (0 for a root);
// Tree groups the spans of one request or one background job and is the
// root's ID.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Tree   int64  `json:"tree"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps every span in memory until the run ends; nothing is
// written while the benchmark measures. A nil *Tracer records nothing,
// which is how untraced runs pay no tracing cost beyond a nil check.
type Tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []Span // spans[i].ID == i+1
}

// NewTracer starts an empty trace whose clock origin is now.
func NewTracer() *Tracer { return &Tracer{origin: time.Now()} }

// Record adds a finished span and returns its ID. A child inherits its
// parent's tree; a root starts its own.
func (t *Tracer) Record(name string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	tree := id
	if parent > 0 && parent <= int64(len(t.spans)) {
		tree = t.spans[parent-1].Tree
	}
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Tree: tree, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// Spans returns a copy of every span recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Adopt makes every root span called child a child of the parent-named
// span whose interval contains it. The counting filesystem cannot know
// which call it serves, so its foreground spans are attached this way
// once the run is over.
func (t *Tracer) Adopt(child, parent string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var parents []Span
	for _, s := range t.spans {
		if s.Name == parent {
			parents = append(parents, s)
		}
	}
	sort.Slice(parents, func(i, j int) bool { return parents[i].Start < parents[j].Start })
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != child || s.Parent != 0 {
			continue
		}
		// The last parent starting at or before the child is the only
		// candidate when parents do not overlap; otherwise scan back.
		k := sort.Search(len(parents), func(k int) bool { return parents[k].Start > s.Start }) - 1
		for ; k >= 0; k-- {
			if p := parents[k]; p.Start <= s.Start && s.End <= p.End {
				s.Parent, s.Tree = p.ID, p.Tree
				break
			}
		}
	}
}

// Children indexes spans by parent ID.
func Children(spans []Span) map[int64][]Span {
	kids := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// SelfTime is the span's duration minus the part of its interval that
// its children cover. Overlapping children count once, and a child
// running past its parent counts only inside the parent.
func SelfTime(s Span, children []Span) time.Duration {
	return s.Dur() - covered(s.Start, s.End, children)
}

// covered is the length of the union of the spans' intervals clipped to
// [lo, hi].
func covered(lo, hi int64, spans []Span) time.Duration {
	iv := make([][2]int64, 0, len(spans))
	for _, c := range spans {
		a, b := max(c.Start, lo), min(c.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

// WriteJSONL writes every span, one JSON object a line.
func (t *Tracer) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
