package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pis/server"
)

// unresolved is reported for a quantile that lands in a histogram's
// open top bucket: the bucket has no upper bound, so any number would
// be invented. Reporting the bucket's lower bound instead is the defect
// that read 10000 ms for every slow query.
const unresolved = -1

// scrape is one reading of the process-wide metric registry, keyed by
// the full series name as exposed ("name" or "name{labels}").
type scrape map[string]float64

// readRegistry reads the registry through the exported exposition
// handler, the same bytes GET /metrics serves.
func readRegistry() scrape {
	rec := httptest.NewRecorder()
	server.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out := make(scrape)
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sub returns after − before for every series in after.
func (after scrape) sub(before scrape) scrape {
	d := make(scrape, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// histQuantile estimates quantile q of the unlabelled histogram name
// from its cumulative bucket counts, interpolating linearly inside the
// bucket that holds the rank. It returns the value in the histogram's
// unit, unresolved when the rank falls in the +Inf bucket, and 0 when
// the histogram recorded nothing.
func (s scrape) histQuantile(name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + "_bucket{"
	for k, v := range s {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		leStr := k[i+4 : len(k)-2]
		le := math.Inf(1)
		if leStr != "+Inf" {
			f, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				continue
			}
			le = f
		}
		bs = append(bs, bucket{le, v})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].cum
	if total <= 0 {
		return 0
	}
	rank := q * total
	lo, prevCum := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				return unresolved
			}
			if b.cum == prevCum {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prevCum)/(b.cum-prevCum)
		}
		lo, prevCum = b.le, b.cum
	}
	return unresolved
}

// histSum and histCount read a histogram family's _sum and _count.
func (s scrape) histSum(name string) float64   { return s[name+"_sum"] }
func (s scrape) histCount(name string) float64 { return s[name+"_count"] }

// procSample is what the process itself says about its resource use.
type procSample struct {
	cpu                  time.Duration // user + system
	minFaults, majFaults float64
	totalAlloc           uint64
	numGC                uint32
}

func readProc() procSample {
	var p procSample
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if b, err := os.ReadFile("/proc/self/stat"); err == nil {
		// Fields after the parenthesised command name: state is field 3,
		// minflt field 10 and majflt field 12 of proc(5).
		s := string(b)
		if i := strings.LastIndexByte(s, ')'); i >= 0 {
			f := strings.Fields(s[i+1:])
			if len(f) > 9 {
				p.minFaults, _ = strconv.ParseFloat(f[7], 64)
				p.majFaults, _ = strconv.ParseFloat(f[9], 64)
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.totalAlloc, p.numGC = ms.TotalAlloc, ms.NumGC
	return p
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current RSS, so the peak read after the window excludes set-up
// transients and everything done before.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// dirMB sums the sizes of the regular files under dir, in MiB.
func dirMB(dir string) (float64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / (1 << 20), err
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (xs[i+1]-xs[i])*(pos-float64(i))
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

// ratio is a/b, or 0 when b is 0 (the quantity does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
