package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adjarray/internal/iofault"
)

// N AppendBatch calls with an fsync on every batch yield at least N WAL
// syncs, and the WAL bytes counted match the segment files on disk.
func TestCountFSMatchesDisk(t *testing.T) {
	dir := t.TempDir()
	cfs := newCountFS(iofault.OS, nil)
	ing, err := openStore(dir, cfs)
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	in, err := makeGraphInput(2, saltGraph, 8)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for b := 0; b < n; b++ {
		if err := ing.AppendBatch(in.edges[b*100 : (b+1)*100]); err != nil {
			t.Fatal(err)
		}
	}
	c := cfs.Counts()
	if c.WALSyncs < n {
		t.Fatalf("%d WAL syncs for %d batches with fsync on every batch", c.WALSyncs, n)
	}
	if len(c.SyncTimes) != int(c.WALSyncs) {
		t.Fatalf("%d sync times for %d syncs", len(c.SyncTimes), c.WALSyncs)
	}

	var walOnDisk int64
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasPrefix(d.Name(), "wal-") {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		walOnDisk += info.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if walOnDisk == 0 || c.WALWriteBytes != walOnDisk {
		t.Fatalf("counted %d WAL bytes, %d on disk", c.WALWriteBytes, walOnDisk)
	}
}
