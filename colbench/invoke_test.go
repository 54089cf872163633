package main

import (
	"context"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"columbia/internal/core"
	"columbia/internal/noise"
	"columbia/internal/sweep"
)

// fastIDs are experiments whose tables come from analytic models, so the
// test renders them in milliseconds.
var fastIDs = []string{"table1", "table2", "table3", "table4"}

// cliOutput renders experiments in-process exactly as `columbia -csv run`
// prints them.
func cliOutput(t *testing.T, ids []string) string {
	t.Helper()
	sweep.Configure(context.Background(), sweep.Options{Workers: 1})
	var b strings.Builder
	for i, id := range ids {
		e, err := core.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(renderExperiment(e, i, true, tracer{rec: newRecorder()}))
	}
	return b.String()
}

func TestGoldenCheck(t *testing.T) {
	golden, err := loadGolden("..", fastIDs)
	if err != nil {
		t.Fatal(err)
	}
	out := cliOutput(t, fastIDs)
	if err := checkGolden([]byte(out), golden); err != nil {
		t.Fatalf("seed output rejected: %v", err)
	}
	if !strings.Contains(out, "paper: ") || !strings.Contains(out, "== table1: ") {
		t.Fatal("rendered output lacks the CLI's headers")
	}
	rejects := map[string]string{
		"one cell":           strings.Replace(out, ",NUMAlink3,", ",NUMAlink5,", 1),
		"extra row":          strings.Replace(out, "Processors,512,512,512\n", "Processors,512,512,512\nx,1,2,3\n", 1),
		"missing experiment": out[:strings.Index(out, "== table4: ")],
		"reordered":          cliOutput(t, []string{"table2", "table1", "table3", "table4"}),
		"text before header": "stray\n" + out,
	}
	for name, bad := range rejects {
		if bad == out {
			t.Fatalf("%s: mutation did not change the output", name)
		}
		if err := checkGolden([]byte(bad), golden); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestGoldenCheckRejectsNumericCell(t *testing.T) {
	golden, err := loadGolden("..", fastIDs)
	if err != nil {
		t.Fatal(err)
	}
	out := cliOutput(t, fastIDs)
	// Change the last digit of the first numeric cell of table2's rows.
	sec := strings.Index(out, "== table2: ")
	lines := strings.SplitAfter(out[sec:], "\n")
	for i, l := range lines[3:] {
		cells := strings.Split(l, ",")
		for j, c := range cells {
			if n := len(c); j > 0 && n > 0 && c[n-1] >= '0' && c[n-1] <= '8' {
				cells[j] = c[:n-1] + string(c[n-1]+1)
				lines[3+i] = strings.Join(cells, ",")
				bad := out[:sec] + strings.Join(lines, "")
				if err := checkGolden([]byte(bad), golden); err == nil {
					t.Fatalf("changed cell %q -> %q accepted", c, cells[j])
				}
				return
			}
		}
	}
	t.Fatal("no numeric cell found in table2")
}

func TestCheckReference(t *testing.T) {
	ref := []byte("a 1.0/1.1/1.2 ±9.1%\n")
	if err := checkReference(ref, ref); err != nil {
		t.Errorf("identical output rejected: %v", err)
	}
	if err := checkReference([]byte("a 1.0/1.1/1.3 ±9.1%\n"), ref); err == nil {
		t.Error("different output accepted")
	}
	if err := checkReference([]byte("a 1.0\n"), []byte("a 1.0\n")); err == nil {
		t.Error("output without ensemble cells accepted")
	}
}

func TestSeedToNoiseSpec(t *testing.T) {
	if got, want := noiseSpec(7), "jitter=exp:0.05,daemon=0.01:0.2:3:2,seed=7"; got != want {
		t.Errorf("noiseSpec(7) = %q, want %q", got, want)
	}
	seen := map[string]uint64{}
	for _, seed := range []uint64{1, 2, 7, 1 << 40, ^uint64(0)} {
		spec, err := noise.Parse(noiseSpec(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if spec.Seed() != seed || !spec.Jitters() || !spec.Daemons() {
			t.Errorf("seed %d: parsed seed %d, jitter %v, daemon %v", seed, spec.Seed(), spec.Jitters(), spec.Daemons())
		}
		if prev, dup := seen[spec.Fingerprint()]; dup {
			t.Errorf("seeds %d and %d share fingerprint %q", prev, seed, spec.Fingerprint())
		}
		seen[spec.Fingerprint()] = seed
	}
}

func TestWorkloadCommands(t *testing.T) {
	spec := noiseSpec(9)
	want := map[string][3][]string{ // run, setup, reference
		"paper-1core": {{"-j", "1", "-csv", "all"}, {"-j", "1", "-csv", "list"}, {"-j", "1", "-csv", "all"}},
		"paper-2core": {{"-j", "2", "-csv", "all"}, {"-j", "2", "-csv", "list"}, {"-j", "1", "-csv", "all"}},
		"ensemble-workers": {
			{"-workers", "2", "-noise", spec, "-replicas", "16", "run", "fig7", "fig9"},
			{"-workers", "2", "-noise", spec, "-replicas", "16", "list"},
			{"-j", "1", "-noise", spec, "-replicas", "16", "run", "fig7", "fig9"},
		},
	}
	for _, w := range workloads {
		got := [3][]string{w.runArgs(9), w.setupArgs(9), w.referenceArgs(9)}
		for i := range got {
			if !slices.Equal(got[i], want[w.name][i]) {
				t.Errorf("%s: args %d = %q, want %q", w.name, i, got[i], want[w.name][i])
			}
		}
	}
}

// TestInvokeLeavesNoProcess runs a stand-in CLI that starts a background
// child and either exits at once or is cancelled while it runs; either
// way the child must be gone, killed and reaped, when invoke returns.
func TestInvokeLeavesNoProcess(t *testing.T) {
	if err := becomeSubreaper(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, script string
		timeout      time.Duration
	}{
		{"exits", "sleep 30 >/dev/null 2>&1 & echo $!", time.Minute},
		{"cancelled", "sleep 30 >/dev/null 2>&1 & echo $!; sleep 30", 200 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), tc.timeout)
			defer cancel()
			inv := invoke(ctx, "/bin/sh", 1, []string{"-c", tc.script})
			pid, err := strconv.Atoi(strings.TrimSpace(string(inv.stdout)))
			if err != nil {
				t.Fatalf("stand-in printed %q: %v", inv.stdout, err)
			}
			if inv.wall > 10*time.Second {
				t.Errorf("invoke took %v, want the child killed, not awaited", inv.wall)
			}
			if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
				t.Errorf("background child %d still exists after invoke (kill 0: %v)", pid, err)
			}
		})
	}
}
