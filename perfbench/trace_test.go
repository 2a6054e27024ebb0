package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"adjarray/internal/iofault"
)

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	at := func(ms int64) int64 { return ms * int64(time.Millisecond) }
	parent := Span{ID: 1, Start: at(0), End: at(100)}
	kids := []Span{
		{Parent: 1, Start: at(10), End: at(40)},
		{Parent: 1, Start: at(30), End: at(50)},  // overlaps the first: 10..50 counts once
		{Parent: 1, Start: at(60), End: at(70)},  // disjoint
		{Parent: 1, Start: at(95), End: at(120)}, // runs past the parent: only 95..100 counts
	}
	if got, want := SelfTime(parent, kids), 100*time.Millisecond-(40+10+5)*time.Millisecond; got != want {
		t.Fatalf("self time %v, want %v", got, want)
	}
	if got := SelfTime(parent, nil); got != 100*time.Millisecond {
		t.Fatalf("childless self time %v, want the whole span", got)
	}
}

func TestAdoptNestsByContainment(t *testing.T) {
	tr := NewTracer()
	o := tr.origin
	ms := func(n int) time.Time { return o.Add(time.Duration(n) * time.Millisecond) }
	a := tr.Record("core.append", 0, ms(0), ms(10))
	b := tr.Record("core.append", 0, ms(20), ms(30))
	tr.Record("wal.io", 0, ms(2), ms(4))
	tr.Record("wal.io", 0, ms(22), ms(29))
	tr.Record("wal.io", 0, ms(12), ms(14)) // between appends: stays a root
	tr.Adopt("wal.io", "core.append")
	kids := Children(tr.Spans())
	if len(kids[a]) != 1 || len(kids[b]) != 1 {
		t.Fatalf("children %v", kids)
	}
	if kids[b][0].Tree != b {
		t.Fatalf("adopted span tree %d, want %d", kids[b][0].Tree, b)
	}
	for _, s := range named(tr, "wal.io") {
		if s.Start == int64(12*time.Millisecond) && s.Parent != 0 {
			t.Fatalf("span outside every append was adopted: %+v", s)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	if id := tr.Record("x", 0, time.Now(), time.Now()); id != 0 {
		t.Fatalf("nil tracer returned id %d", id)
	}
	tr.Adopt("a", "b")
	if len(tr.Spans()) != 0 {
		t.Fatal("nil tracer has spans")
	}
}

// Background checkpoints form their own trees, apart from the appends
// whose WAL writes they follow, and spans reach disk only at the end.
func TestCheckpointSpansFormTheirOwnTree(t *testing.T) {
	dir := t.TempDir()
	tr := NewTracer()
	cfs := newCountFS(iofault.OS, tr)
	ing, err := openStore(dir, cfs)
	if err != nil {
		t.Fatal(err)
	}
	in, err := makeGraphInput(1, saltGraph, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := load(ing, in.edges, tr, nil); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil { // Close writes a covering checkpoint
		t.Fatal(err)
	}
	tr.Adopt("wal.io", "core.append")
	spans := tr.Spans()
	kids := Children(spans)
	roots := named(tr, "wal.checkpoint")
	if len(roots) == 0 {
		t.Fatal("no checkpoint tree recorded")
	}
	for _, r := range roots {
		if r.Parent != 0 || r.Tree != r.ID {
			t.Fatalf("checkpoint span is not a root: %+v", r)
		}
		if len(kids[r.ID]) == 0 {
			t.Fatalf("checkpoint %d has no file operations", r.ID)
		}
		for _, k := range kids[r.ID] {
			if k.Name != "wal.ckpt_io" || k.Tree != r.ID {
				t.Fatalf("checkpoint child %+v", k)
			}
		}
	}
	adopted := 0
	for _, s := range named(tr, "wal.io") {
		if s.Parent != 0 {
			adopted++
			if p := spans[s.Parent-1]; p.Name != "core.append" {
				t.Fatalf("wal.io adopted by %s", p.Name)
			}
		}
	}
	if adopted == 0 {
		t.Fatal("no WAL write was attributed to an append")
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("trace file exists before the run ended")
	}
	if err := tr.WriteJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); n++ {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
	}
	if n != len(spans) {
		t.Fatalf("wrote %d spans, recorded %d", n, len(spans))
	}
}

func named(tr *Tracer, name string) []Span {
	var out []Span
	for _, s := range tr.Spans() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}
