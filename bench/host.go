package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostInfo is the fingerprint printed with every result, so a number can be
// traced to the machine and toolchain that produced it.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
	Go         string `json:"go"`
}

func fingerprint() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        procField("/proc/cpuinfo", "model name"),
		Kernel:     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		Go:         runtime.Version(),
	}
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return string(b)
}

// procField returns the value of the first "key : value" line of a /proc
// file ("" when the file or the key is missing, e.g. off Linux).
func procField(path, key string) string {
	sc := bufio.NewScanner(strings.NewReader(readFile(path)))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB is VmHWM of this process, the high-water mark of resident memory.
func peakRSSMB() float64 {
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	return kb * 1024 / 1e6
}

// cpuTicks returns the steal and total jiffies of the aggregate cpu line of
// /proc/stat.
func cpuTicks() (steal, total float64) {
	sc := bufio.NewScanner(strings.NewReader(readFile("/proc/stat")))
	if !sc.Scan() {
		return 0, 0
	}
	f := strings.Fields(sc.Text())
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		// guest and guest_nice (fields 9, 10) are already inside user/nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// calibBuf is what the calibration kernel works on: two 4 MB arrays, larger
// together than this class of host's L2, so the kernel sees memory as the
// codecs do.
var calibBuf = func() (b [2][]float64) {
	for i := range b {
		b[i] = make([]float64, 1<<19)
		for j := range b[i] {
			b[i][j] = float64(j & 1023)
		}
	}
	return b
}()

// calibSink keeps the sum alive so the compiler cannot drop the loop.
var calibSink float64

// calibMBs runs the calibration kernel — sum one array, copy it to the other,
// a fixed number of times, allocating nothing — and returns the rate of its
// fastest pass in MB/s. It runs between phases, never inside one, and nothing
// is scaled by it: host.calib_mb_s only says how fast the host was, so a run
// made in a slow spell can be told from a run of slower code.
func calibMBs() float64 {
	best := math.Inf(1)
	for pass := 0; pass < 8; pass++ {
		src, dst := calibBuf[pass&1], calibBuf[1-pass&1]
		t0 := time.Now()
		sum := 0.0
		for _, v := range src {
			sum += v
		}
		copy(dst, src)
		if d := time.Since(t0).Seconds(); d < best {
			best = d
		}
		calibSink += sum
	}
	return float64(2*8*len(calibBuf[0])) / best / 1e6
}
