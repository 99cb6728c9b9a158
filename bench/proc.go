package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the user+system CPU consumed so far by this process and
// every child it has reaped (isolation workers are reaped when their
// campaign's pool closes, so a window that starts and ends between
// campaigns sees all of their CPU).
func cpuTime() time.Duration {
	var total time.Duration
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			continue // cannot fail for these two selectors
		}
		total += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return total
}

// procStatusKB reads one "Vm*" line of /proc/self/status in kB; 0 when
// the platform has no procfs.
func procStatusKB(field string) int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field+":") {
			continue
		}
		parts := strings.Fields(line[len(field)+1:])
		if len(parts) == 0 {
			return 0
		}
		kb, _ := strconv.ParseInt(parts[0], 10, 64) // malformed line reads as 0
		return kb
	}
	return 0
}

// peakRSSMB is the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 { return float64(procStatusKB("VmHWM")) / 1024 }

// residentMB is the process's resident set right now (VmRSS) less the
// runtime's free-but-unreturned heap spans. Those spans are the
// scavenger's backlog after an allocation burst, not memory a campaign
// needs, and how much of it is outstanding at any instant is timing: ten
// inproc_hpc runs of one binary spread 18.7 % on plain VmRSS and 1.7 %
// without it.
func residentMB() float64 {
	heapFree := []metrics.Sample{{Name: "/memory/classes/heap/free:bytes"}}
	metrics.Read(heapFree)
	free := 0.0
	if heapFree[0].Value.Kind() == metrics.KindUint64 {
		free = float64(heapFree[0].Value.Uint64()) / (1 << 20)
	}
	return float64(procStatusKB("VmRSS"))/1024 - free
}

// scratchBase is where runs keep their scratch, relative to the working
// directory (the checkout root when run by the driver). Keeping it inside
// the checkout is part of the benchmark contract; .gitignore names it.
const scratchBase = ".bench_build"

// scratchRoot creates one run's private directory under base: every store,
// StoreRoot and MergeDir lives below it, and the run removes it on exit.
// The file system it lands on is stamped as scratch_fs.
func scratchRoot(base string) (string, error) {
	base, err := filepath.Abs(base)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "scratch-")
}

// fsType names the file system holding path (statfs magic, with the
// common ones spelled out).
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// stamp describes the host and build the numbers came from.
type stamp struct {
	HostCores    int
	GOMAXPROCS   int
	GoVersion    string
	Commit       string
	DegradedHost bool
	ScratchFS    string
}

func newStamp(scratch string) stamp {
	s := stamp{
		HostCores:    runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       "unknown",
		DegradedHost: runtime.NumCPU() < 2,
		ScratchFS:    fsType(scratch),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				s.Commit = kv.Value
			}
		}
	}
	return s
}
