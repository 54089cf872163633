package main

import (
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// cpuTimes is the aggregate line of /proc/stat, in clock ticks.
type cpuTimes struct {
	total, steal uint64
}

// readCPUTimes parses the "cpu" line of /proc/stat: user nice system idle
// iowait irq softirq steal ...; guest time is already inside user.
func readCPUTimes() (cpuTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseCPULine(line)
}

func parseCPULine(line string) (cpuTimes, error) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var t cpuTimes
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("/proc/stat: %w", err)
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t, nil
}

// stealFrac is the share of CPU time the hypervisor stole between a and b.
func stealFrac(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// commit names the checked-out revision, or "unknown" outside a git
// checkout.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the simulator's sources (go.mod, cmd/, internal/),
// which names the code under test where the checkout carries no commit.
func sourceDigest(root string) string {
	h := sha256.New()
	for _, dir := range []string{"go.mod", "cmd", "internal"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path) // path is under root
			fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
			h.Write(b)
			return nil
		})
		if err != nil {
			return "unknown"
		}
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil)[:6])
}

// hostContext is the run context printed with every result.
type hostContext struct {
	nproc      int
	goVersion  string
	commit     string
	source     string
	loadBefore string
	loadAfter  string
	steal      float64
	cpuStart   cpuTimes
	cpuErr     error
}

func startHost(root string) *hostContext {
	h := &hostContext{nproc: runtime.NumCPU(), goVersion: runtime.Version(), commit: commit(root),
		source: sourceDigest(root), loadBefore: loadavg()}
	h.cpuStart, h.cpuErr = readCPUTimes()
	return h
}

// finish records the load average and the steal share over the run.
func (h *hostContext) finish() {
	h.loadAfter = loadavg()
	if h.cpuErr != nil {
		return
	}
	end, err := readCPUTimes()
	if err != nil {
		h.cpuErr = err
		return
	}
	h.steal = stealFrac(h.cpuStart, end)
}

func (h *hostContext) print(w *strings.Builder) {
	fmt.Fprintf(w, "context: nproc=%d go=%s commit=%s source=%s\n", h.nproc, h.goVersion, h.commit, h.source)
	steal := fmt.Sprintf("%.4f", h.steal)
	if h.cpuErr != nil {
		steal = "unknown (" + h.cpuErr.Error() + ")"
	}
	fmt.Fprintf(w, "context: loadavg before=%q after=%q steal_frac=%s\n", h.loadBefore, h.loadAfter, steal)
	for _, wl := range workloads {
		fmt.Fprintf(w, "context: workload %-16s GOMAXPROCS=%d -j %d -workers %d\n", wl.name, wl.gomaxprocs, wl.lanes(), wl.workers)
	}
}
