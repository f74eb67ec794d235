package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// fingerprint is the hardware and build identity a number was measured
// on; ROADMAP counts a speed-up claim only together with it.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	GitRev     string `json:"git_rev"`
}

func readFingerprint(root string) fingerprint {
	fp := fingerprint{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		GitRev:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	// The driver's checkout is not a git repository; there the revision
	// stays "unknown".
	if _, err := os.Stat(root + "/.git"); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			fp.GitRev = strings.TrimSpace(string(out))
		}
	}
	return fp
}

// cpuTimes is one reading of the aggregate "cpu" line of /proc/stat, in
// clock ticks.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var t cpuTimes
	for i, s := range f {
		if i == 0 {
			continue
		}
		v, _ := strconv.ParseUint(s, 10, 64)
		// guest and guest_nice (fields 9, 10) are already inside user/nice.
		if i <= 8 {
			t.total += v
		}
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// stealPct is the share of host CPU time stolen between two readings.
func stealPct(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// clockTick is USER_HZ, which Linux fixes at 100 for /proc on every
// architecture Go supports.
const clockTick = 100

// pidCPUms reads utime+stime of a live process from /proc/<pid>/stat.
func pidCPUms(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseUint(f[11], 10, 64) // field 14
	st, _ := strconv.ParseUint(f[12], 10, 64) // field 15
	return float64(ut+st) * 1000 / clockTick, nil
}

// peakRSSmb reads a live process's peak resident set (VmHWM) from
// /proc/<pid>/status. The ru_maxrss that wait4 returns cannot be used:
// at exec Linux seeds it with the peak of the address space the child was
// forked in, which is this benchmark's, graphs and all.
func peakRSSmb(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
