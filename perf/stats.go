package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by the nearest-rank rule.
// xs need not be sorted; it is not modified. Empty input gives 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio returns a/b, or 0 when b is 0 (a counter with nothing to divide).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tailNote states a percentile with its sample count and how many samples
// lie beyond it, which is what makes a tail figure trustworthy.
func tailNote(name string, xs []float64, q float64) string {
	return fmt.Sprintf("%s: p%g = %.3f ms over n=%d samples (%d beyond)", name, q*100, percentile(xs, q),
		len(xs), len(xs)-int(math.Ceil(q*float64(len(xs)))))
}

// usage is a snapshot of the process-wide counters a timed window is
// charged with. The program under test runs in this process beside the
// load generator and the oracle, whose work per op is the same on every
// commit.
type usage struct {
	at          time.Time
	cpu         time.Duration // user + sys, getrusage(RUSAGE_SELF)
	allocBytes  uint64        // /gc/heap/allocs:bytes
	gcCycles    uint64        // /gc/cycles/total:gc-cycles
	gcCPU       float64       // /cpu/classes/gc/total:cpu-seconds
	totalCPU    float64       // /cpu/classes/total:cpu-seconds
	sched       *metrics.Float64Histogram
	busy, steal int64 // machine CPU ticks, /proc/stat
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/sched/latencies:seconds"},
}

// heapAllocs reads the Go heap's cumulative allocated bytes exactly. It
// stops the world to flush every P's allocation cache, which runtime/metrics
// does not, so it serves the replays and traced steps that measure a single
// call; a timed window reads the cheaper runtime/metrics counter, whose
// unflushed remainder is negligible beside a window's allocations.
func heapAllocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func readUsage() usage {
	var u usage
	s := make([]metrics.Sample, len(usageSamples))
	copy(s, usageSamples)
	metrics.Read(s)
	u.allocBytes = s[0].Value.Uint64()
	u.gcCycles = s[1].Value.Uint64()
	u.gcCPU = s[2].Value.Float64()
	u.totalCPU = s[3].Value.Float64()
	u.sched = s[4].Value.Float64Histogram()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	u.busy, u.steal = cpuTicks()
	u.at = time.Now()
	return u
}

// cost is what a timed window consumed between two usage snapshots.
type cost struct {
	elapsed    time.Duration
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint64
	gcCPUFrac  float64
	schedP90   time.Duration // how long runnable goroutines waited for a CPU, p90
	stealFrac  float64       // share of the machine's non-idle CPU time stolen
}

func costBetween(a, b usage) cost {
	c := cost{
		elapsed:    b.at.Sub(a.at),
		cpu:        b.cpu - a.cpu,
		allocBytes: b.allocBytes - a.allocBytes,
		gcCycles:   b.gcCycles - a.gcCycles,
		gcCPUFrac:  ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
		stealFrac:  ratio(float64(b.steal-a.steal), float64(b.busy-a.busy+b.steal-a.steal)),
	}
	c.schedP90 = histDeltaQuantile(a.sched, b.sched, 0.9)
	return c
}

// histDeltaQuantile returns the q-quantile of the samples a cumulative
// runtime histogram gained between two reads, at the upper edge of the
// bucket it falls in.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) time.Duration {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= need {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return time.Duration(hi * 1e9)
		}
	}
	return 0
}

// peakRSSMiB reads the process's peak resident set (VmHWM) since the last
// resetPeakRSS.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// rssWatch samples the process's peak RSS over a timed window in short
// intervals. A single lifetime peak lands wherever one garbage collection
// happened to fall; the median of the intervals' peaks is the resident
// size the program typically reaches, and repeats from run to run.
type rssWatch struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
}

const rssInterval = 500 * time.Millisecond

func watchRSS() *rssWatch {
	w := &rssWatch{stop: make(chan struct{}), done: make(chan struct{})}
	resetPeakRSS()
	go func() {
		defer close(w.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				if v, err := peakRSSMiB(); err == nil {
					w.peaks = append(w.peaks, v)
				}
				resetPeakRSS()
			}
		}
	}()
	return w
}

// median stops the watch and returns the median interval peak (MiB).
func (w *rssWatch) median() float64 {
	close(w.stop)
	<-w.done
	if v, err := peakRSSMiB(); err == nil {
		w.peaks = append(w.peaks, v)
	}
	return median(w.peaks)
}

// resetPeakRSS restarts the kernel's peak-RSS count (VmHWM) at the current
// resident size. Where the kernel refuses, the peak stays the process's
// lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuTicks reads the machine's busy and steal CPU ticks from /proc/stat.
// Steal is time the hypervisor ran another guest while this one had work:
// on a shared host it is what moves a run's timings most, so each run
// reports its share. Where /proc/stat is unreadable both are 0.
func cpuTicks() (busy, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] {
		n, _ := strconv.ParseInt(v, 10, 64)
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			steal = n
		default:
			busy += n
		}
	}
	return busy, steal
}

// fsType names the filesystem holding dir: the stores' fsync cost depends
// on it (tmpfs returns at once, a disk waits for the device).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// hostLine records what a result was measured on.
func hostLine(seed int64, seconds float64, storeDir string) string {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		// A checkout outside git has no commit; don't search its parents.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("host: cores=%d gomaxprocs=%d go=%s os=%s/%s commit=%s seed=%d seconds=%g store_fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		commit, seed, seconds, fsType(storeDir))
}

// formatList prints xs with four significant digits, space-separated.
func formatList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(parts, " ")
}
