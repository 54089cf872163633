package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// invokeTimeout bounds one CLI invocation, so a hung run fails instead of
// outliving the benchmark's own time limit.
const invokeTimeout = 60 * time.Second

// invocation is one finished CLI process.
type invocation struct {
	wall   time.Duration
	maxRSS int64 // KiB, the largest resident set in the process tree
	stdout []byte
	stderr []byte
	err    error // non-nil when the process did not exit 0
}

// invoke runs the CLI with GOMAXPROCS pinned and times it from exec to
// exit. wait4 reports the largest resident set of the child and of every
// descendant it reaped, so worker processes are included.
//
// The CLI runs in a process group of its own, which a cancelled or timed
// out invocation kills whole; once the CLI has exited, whatever is left
// of the group is killed and reaped (see becomeSubreaper), so no worker
// outlives its invocation.
func invoke(ctx context.Context, cli string, gomaxprocs int, args []string) invocation {
	ctx, cancel := context.WithTimeout(ctx, invokeTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, cli, args...)
	cmd.Env = cliEnv(gomaxprocs)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	inv := invocation{wall: time.Since(start), stdout: out.Bytes(), stderr: errb.Bytes(), err: err}
	if cmd.Process != nil {
		reapGroup(cmd.Process.Pid)
	}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			inv.maxRSS = ru.Maxrss
		}
	}
	return inv
}

// becomeSubreaper makes this process the reaper of its orphaned
// descendants: a worker whose CLI has exited is re-parented here rather
// than to init, so reapGroup can wait for it.
func becomeSubreaper() error {
	const prSetChildSubreaper = 36
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0); errno != 0 {
		return fmt.Errorf("prctl(PR_SET_CHILD_SUBREAPER): %w", errno)
	}
	return nil
}

// reapGroup kills every process left in process group pgid and waits
// for each of them that is this process's child.
func reapGroup(pgid int) {
	_ = syscall.Kill(-pgid, syscall.SIGKILL) // ESRCH: the group is empty
	for {
		var ws syscall.WaitStatus
		_, err := syscall.Wait4(-pgid, &ws, 0, nil)
		if err != nil && err != syscall.EINTR {
			return // ECHILD: none left
		}
	}
}

// cliEnv is the benchmark's environment with GOMAXPROCS pinned and worker
// mode off.
func cliEnv(gomaxprocs int) []string {
	env := []string{"GOMAXPROCS=" + strconv.Itoa(gomaxprocs)}
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") && !strings.HasPrefix(kv, "COLUMBIA_WORKER=") {
			env = append(env, kv)
		}
	}
	return env
}

// verify decides whether an invocation failed: a non-zero exit, failed
// points reported on stderr, or output the check rejects.
func verify(inv invocation, check func([]byte) error) error {
	if inv.err != nil {
		return fmt.Errorf("exit: %v: %s", inv.err, firstLine(inv.stderr))
	}
	if bytes.Contains(inv.stderr, []byte("point(s) failed")) {
		return fmt.Errorf("failed points: %s", firstLine(inv.stderr))
	}
	return check(inv.stdout)
}

func firstLine(b []byte) string {
	line, _, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
	return line
}

// goldenFile is one experiment's expected CSV data rows.
type goldenFile struct {
	id   string
	rows []string
}

// loadGolden reads internal/core/testdata/golden/<id>.csv for every id.
func loadGolden(root string, ids []string) ([]goldenFile, error) {
	out := make([]goldenFile, len(ids))
	for i, id := range ids {
		b, err := os.ReadFile(filepath.Join(root, "internal", "core", "testdata", "golden", id+".csv"))
		if err != nil {
			return nil, fmt.Errorf("golden: %w", err)
		}
		out[i] = goldenFile{id: id, rows: dataRows(string(b), "# ")}
	}
	return out, nil
}

// dataRows drops blank lines and lines starting with any of the prefixes.
func dataRows(text string, drop ...string) []string {
	var rows []string
next:
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		for _, p := range drop {
			if strings.HasPrefix(line, p) {
				continue next
			}
		}
		rows = append(rows, line)
	}
	return rows
}

// checkGolden compares `columbia -csv` output with the golden files: it
// splits the output at the "== id: title ==" headers, drops the "paper:"
// lines and blank lines, and requires each experiment's remaining rows to
// equal its golden rows, in order.
func checkGolden(out []byte, want []goldenFile) error {
	type section struct {
		id   string
		text strings.Builder
	}
	var got []*section
	for _, line := range strings.SplitAfter(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			id, _, _ := strings.Cut(rest, ":")
			got = append(got, &section{id: id})
			continue
		}
		if len(got) == 0 {
			if strings.TrimSpace(line) != "" {
				return fmt.Errorf("golden: output before the first experiment header: %q", line)
			}
			continue
		}
		got[len(got)-1].text.WriteString(line)
	}
	if len(got) != len(want) {
		return fmt.Errorf("golden: %d experiments in output, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].id != w.id {
			return fmt.Errorf("golden: experiment %d is %q, want %q", i, got[i].id, w.id)
		}
		rows := dataRows(got[i].text.String(), "paper:")
		for j := 0; j < len(rows) || j < len(w.rows); j++ {
			var g, e string
			if j < len(rows) {
				g = rows[j]
			}
			if j < len(w.rows) {
				e = w.rows[j]
			}
			if g != e {
				return fmt.Errorf("golden: %s row %d: got %q, want %q", w.id, j+1, g, e)
			}
		}
	}
	return nil
}

// checkReference requires output byte-identical to the reference run and
// holding ensemble distribution cells.
func checkReference(out, ref []byte) error {
	if !bytes.Equal(out, ref) {
		return errors.New("output differs from the -j 1 in-process reference")
	}
	if !bytes.Contains(out, []byte("±")) {
		return errors.New("output has no ensemble (±) cells")
	}
	return nil
}
