package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// On a virtual machine the hypervisor can take a large, bursty share of
// wall time from the guest (steal). The kernel leaves stolen time out of
// a task's user and system time, so CPU seconds per operation hold
// steady where wall-clock latencies do not; wall-clock metrics are
// gated with the stolen share taken out (stealClock).

// userHZ is the unit of the utime and stime fields of /proc/<pid>/stat,
// fixed at 100 for user space on Linux.
const userHZ = 100

// procCPU is a running process's user+system CPU seconds, all threads.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

// parseProcStat reads utime+stime from a /proc/<pid>/stat line. The
// command name is parenthesised and may itself hold spaces or ')', so
// fields are counted from the last ')'.
func parseProcStat(line string) (float64, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	f := strings.Fields(line[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line: %d fields", len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad utime/stime %q %q", f[11], f[12])
	}
	return float64(ut+st) / userHZ, nil
}

// selfCPU is this process's user+system CPU seconds (microsecond
// resolution).
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageSeconds(&ru)
}

// exitedCPU is the user+system CPU seconds of an exited child.
func exitedCPU(cmd *exec.Cmd) float64 {
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return rusageSeconds(ru)
}

func rusageSeconds(ru *syscall.Rusage) float64 {
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// stealClock measures wall time with the share the hypervisor stole
// from the guest taken out: the elapsed wall time times one minus the
// stolen share of all CPUs' time in between, as /proc/stat counts it.
// Work that needs time T runs T/(1-s) of wall time when a share s is
// stolen, so the product estimates T. Without /proc/stat nothing is
// taken out.
type stealClock struct {
	t0             time.Time
	total0, steal0 uint64
}

func startStealClock() stealClock {
	total, steal := sysTicks()
	return stealClock{t0: time.Now(), total0: total, steal0: steal}
}

// elapsed is the steal-corrected wall time since start, and the stolen
// share it took out.
func (c stealClock) elapsed() (time.Duration, float64) {
	wall := time.Since(c.t0)
	total, steal := sysTicks()
	share := 0.0
	if total > c.total0 && steal >= c.steal0 {
		share = float64(steal-c.steal0) / float64(total-c.total0)
	}
	return time.Duration(float64(wall) * (1 - share)), share
}

// sysTicks reads the aggregate cpu line of /proc/stat: all CPUs' ticks
// and the stolen ones; zeros when it cannot.
func sysTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	total, steal, err = parseCPUTicks(line)
	if err != nil {
		return 0, 0
	}
	return total, steal
}

// parseCPUTicks reads "cpu user nice system idle iowait irq softirq
// steal [guest guest_nice]". Guest time is already inside user and
// nice, so the total is the sum of the first eight fields.
func parseCPUTicks(line string) (total, steal uint64, err error) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("malformed /proc/stat cpu line %q", line)
	}
	for i, field := range f[1:9] {
		v, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad /proc/stat field %q", field)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}
