package main

import (
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"adjarray/internal/iofault"
)

// fileKind sorts the store's files by what wrote them: WAL segments are
// written in the foreground of an append, checkpoints by the store's
// background checkpointer (or by Close).
type fileKind int

const (
	kindOther fileKind = iota
	kindWAL
	kindCkpt
)

func kindOf(path string) fileKind {
	base := filepath.Base(path)
	switch {
	case strings.HasPrefix(base, "wal-"):
		return kindWAL
	case strings.HasPrefix(base, "ckpt-"):
		return kindCkpt
	}
	return kindOther
}

// FSCounts is a snapshot of what a countFS saw.
type FSCounts struct {
	WALWriteBytes  int64
	CkptWriteBytes int64
	ReadBytes      int64
	WALSyncs       int64
	SyncTimes      []time.Duration // every WAL fsync
	FgIO           time.Duration   // summed WAL write and sync time
}

// countFS wraps an iofault.FS and counts bytes and fsyncs per file
// kind, timing WAL writes and syncs. With a tracer it records each WAL
// write or sync as a "wal.io" span (adopted by the append that caused
// it once the run ends) and each checkpoint's file operations as one
// "wal.checkpoint" tree of "wal.ckpt_io" spans, from CreateTemp to the
// directory fsync that publishes it.
type countFS struct {
	inner iofault.FS
	tr    *Tracer

	mu   sync.Mutex
	c    FSCounts
	ckpt map[string]*ckptTree // open checkpoint per directory
}

type ckptTree struct {
	start time.Time
	ops   []ckptOp
	named bool // renamed into place; the next SyncDir ends it
}

type ckptOp struct {
	start, end time.Time
}

func newCountFS(inner iofault.FS, tr *Tracer) *countFS {
	return &countFS{inner: inner, tr: tr, ckpt: map[string]*ckptTree{}}
}

// Counts returns a copy of the counters.
func (c *countFS) Counts() FSCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.c
	out.SyncTimes = append([]time.Duration(nil), c.c.SyncTimes...)
	return out
}

// ckptOpLocked adds one operation to dir's open checkpoint, if any.
func (c *countFS) ckptOpLocked(dir string, start, end time.Time) {
	if t := c.ckpt[dir]; t != nil {
		t.ops = append(t.ops, ckptOp{start, end})
	}
}

func (c *countFS) wrote(path string, n int, start, end time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch kindOf(path) {
	case kindWAL:
		c.c.WALWriteBytes += int64(n)
		c.c.FgIO += end.Sub(start)
		c.tr.Record("wal.io", 0, start, end)
	case kindCkpt:
		c.c.CkptWriteBytes += int64(n)
		c.ckptOpLocked(filepath.Dir(path), start, end)
	}
}

func (c *countFS) synced(path string, start, end time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch kindOf(path) {
	case kindWAL:
		c.c.WALSyncs++
		c.c.SyncTimes = append(c.c.SyncTimes, end.Sub(start))
		c.c.FgIO += end.Sub(start)
		c.tr.Record("wal.io", 0, start, end)
	case kindCkpt:
		c.ckptOpLocked(filepath.Dir(path), start, end)
	}
}

func (c *countFS) read(n int) {
	c.mu.Lock()
	c.c.ReadBytes += int64(n)
	c.mu.Unlock()
}

func (c *countFS) OpenFile(name string, flag int, perm fs.FileMode) (iofault.File, error) {
	f, err := c.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c, path: name}, nil
}

func (c *countFS) CreateTemp(dir, pattern string) (iofault.File, error) {
	start := time.Now()
	f, err := c.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	if kindOf(pattern) == kindCkpt {
		c.mu.Lock()
		c.ckpt[dir] = &ckptTree{start: start, ops: []ckptOp{{start, time.Now()}}}
		c.mu.Unlock()
	}
	return &countFile{File: f, fs: c, path: f.Name()}, nil
}

func (c *countFS) ReadFile(name string) ([]byte, error) {
	b, err := c.inner.ReadFile(name)
	c.read(len(b))
	return b, err
}

func (c *countFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	start := time.Now()
	err := c.inner.WriteFile(name, data, perm)
	if err == nil {
		c.wrote(name, len(data), start, time.Now())
	}
	return err
}

func (c *countFS) ReadDir(name string) ([]fs.DirEntry, error) { return c.inner.ReadDir(name) }

func (c *countFS) MkdirAll(path string, perm fs.FileMode) error { return c.inner.MkdirAll(path, perm) }

func (c *countFS) Remove(name string) error { return c.inner.Remove(name) }

func (c *countFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := c.inner.Rename(oldpath, newpath)
	if err == nil {
		c.mu.Lock()
		dir := filepath.Dir(newpath)
		c.ckptOpLocked(dir, start, time.Now())
		if t := c.ckpt[dir]; t != nil {
			t.named = true
		}
		c.mu.Unlock()
	}
	return err
}

func (c *countFS) Truncate(name string, size int64) error { return c.inner.Truncate(name, size) }

func (c *countFS) Stat(name string) (fs.FileInfo, error) { return c.inner.Stat(name) }

// SyncDir closes an open checkpoint tree once its file has been renamed
// into place: the directory fsync is what makes it durable.
func (c *countFS) SyncDir(dir string) error {
	start := time.Now()
	err := c.inner.SyncDir(dir)
	end := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.ckpt[dir]
	if t == nil || !t.named {
		return err
	}
	delete(c.ckpt, dir)
	t.ops = append(t.ops, ckptOp{start, end})
	root := c.tr.Record("wal.checkpoint", 0, t.start, end)
	for _, op := range t.ops {
		c.tr.Record("wal.ckpt_io", root, op.start, op.end)
	}
	return err
}

// countFile counts the bytes and syncs of one open file.
type countFile struct {
	iofault.File
	fs   *countFS
	path string
}

func (f *countFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.wrote(f.path, n, start, time.Now())
	return n, err
}

func (f *countFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.fs.read(n)
	return n, err
}

func (f *countFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.synced(f.path, start, time.Now())
	return err
}

func (f *countFile) Close() error {
	start := time.Now()
	err := f.File.Close()
	if kindOf(f.path) == kindCkpt {
		f.fs.mu.Lock()
		f.fs.ckptOpLocked(filepath.Dir(f.path), start, time.Now())
		f.fs.mu.Unlock()
	}
	return err
}
