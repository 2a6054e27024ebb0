package main

import (
	"bufio"
	"io"
	"io/fs"
	"math"
	"net/http"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks; NaN for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo == len(s)-1 {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// goStats reads the runtime counters the per-layer go.* metrics use.
type goStats struct {
	gcCPU, totalCPU float64 // seconds
	allocBytes      float64
	heapBytes       float64
}

var goStatNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/memory/classes/heap/objects:bytes",
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return goStats{gcCPU: val(0), totalCPU: val(1), allocBytes: val(2), heapBytes: val(3)}
}

// scrape fetches a Prometheus text exposition and sums each metric
// name's series across labels.
func scrape(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// timed is one latency observed at an offset into its phase.
type timed struct{ at, d time.Duration }

// windowed splits samples into consecutive windows of length w by
// their offset, applies stat to each window's milliseconds, and returns
// the median of those. A burst of interference from outside the
// program that covers a minority of the windows then cannot move the
// result; a slowdown of the program moves every window.
func windowed(xs []timed, w time.Duration, stat func([]float64) float64) float64 {
	byWin := map[int64][]time.Duration{}
	for _, x := range xs {
		k := int64(x.at / w)
		byWin[k] = append(byWin[k], x.d)
	}
	var per []float64
	for _, ds := range byWin {
		per = append(per, stat(ms(ds)))
	}
	return quantile(per, 0.5)
}

// q returns the q-quantile as a window statistic.
func q(p float64) func([]float64) float64 {
	return func(xs []float64) float64 { return quantile(xs, p) }
}
