package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// host records what a run's numbers depend on besides the code.
type host struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	DataFS     string `json:"data_fs"`
}

func hostInfo(dataDir string) host {
	return host{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		DataFS:     fsType(dataDir),
	}
}

func (h host) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s data_fs=%s", h.NProc, h.GoMaxProcs, h.CPU, h.Go, h.DataFS)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsMagic names the filesystems a data directory is likely to sit on
// (statfs f_type values from linux/magic.h).
var fsMagic = map[int64]string{
	0x01021994: "tmpfs",
	0x0000ef53: "ext4",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x794c7630: "overlay",
	0x00006969: "nfs",
	0x65735546: "fuse",
}

func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// stealSeconds returns the CPU time the hypervisor has taken from this
// machine's CPUs since boot (the steal column of /proc/stat), 0 where
// it is not reported. Runs that saw more of it ran on a busier host.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// cpuSeconds returns the CPU time, user plus system, that this
// process (self) or its waited-for children (RUSAGE_CHILDREN) have
// used. On a paravirtualised guest whose kernel accounts steal time
// (CONFIG_PARAVIRT_TIME_ACCOUNTING), time the hypervisor gave to other
// guests is left out of it, so unlike wall time it does not grow when
// the host is busy.
func cpuSeconds(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the peak resident set size, in MiB, of this
// process (self) or of the largest child process it has waited for.
func peakRSSMB(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
