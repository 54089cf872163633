package main

import (
	"context"
	"os"
	"strings"
	"testing"

	"columbia/internal/core"
	"columbia/internal/sweep"
)

// TestMain lets the test binary double as the worker executable: the
// supervisor spawns os.Executable() with COLUMBIA_WORKER=1, which in tests
// is this binary, so the interception must happen before any test runs.
func TestMain(m *testing.M) {
	if os.Getenv("COLUMBIA_WORKER") == "1" {
		os.Exit(workerMain())
	}
	os.Exit(m.Run())
}

// Runs mutate the process-global sweep pool and fault plan; restore the
// defaults so test order never matters.
func resetGlobals() { sweep.SetWorkers(0) }

func TestFaultedRunExitsNonzeroWithAnnotatedCells(t *testing.T) {
	defer resetGlobals()
	var out, errOut strings.Builder
	code := run(context.Background(), []string{"-faults", "nodedown=0", "run", "stride"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr: %s", code, errOut.String())
	}
	s := out.String()
	// Healthy analytic rows render alongside the degraded simulation row.
	if !strings.Contains(s, "DGEMM per-CPU") {
		t.Errorf("healthy rows missing:\n%s", s)
	}
	if !strings.Contains(s, "!node-down") {
		t.Errorf("degraded cells missing:\n%s", s)
	}
	if !strings.Contains(errOut.String(), "3 point(s) failed") {
		t.Errorf("stderr summary missing: %q", errOut.String())
	}
}

func TestHealthyRunExitsZero(t *testing.T) {
	defer resetGlobals()
	var out, errOut strings.Builder
	code := run(context.Background(), []string{"run", "table1", "stride"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr: %s", code, errOut.String())
	}
	for _, want := range []string{"== table1:", "== stride:", "Ping-Pong latency"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if errOut.Len() != 0 {
		t.Errorf("stderr not empty on a healthy run: %q", errOut.String())
	}
}

func TestBadFaultSpecIsUsageError(t *testing.T) {
	defer resetGlobals()
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-faults", "bogus=1", "run", "stride"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "bogus") {
		t.Errorf("stderr should name the bad directive: %q", errOut.String())
	}
}

func TestBadExperimentIDExitsOne(t *testing.T) {
	defer resetGlobals()
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"run", "nope"}, &out, &errOut); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "unknown experiment") {
		t.Errorf("stderr: %q", errOut.String())
	}
}

func TestCommsanRunMatchesPlain(t *testing.T) {
	defer resetGlobals()
	var plain, plainErr strings.Builder
	if code := run(context.Background(), []string{"run", "stride"}, &plain, &plainErr); code != 0 {
		t.Fatalf("plain run exit = %d\nstderr: %s", code, plainErr.String())
	}
	var san, sanErr strings.Builder
	if code := run(context.Background(), []string{"-commsan", "run", "stride"}, &san, &sanErr); code != 0 {
		t.Fatalf("-commsan run exit = %d\nstderr: %s", code, sanErr.String())
	}
	if plain.String() != san.String() {
		t.Errorf("-commsan perturbed the output\n--- plain ---\n%s\n--- commsan ---\n%s",
			plain.String(), san.String())
	}
	// The deferred reset must leave the toggle off for later runs.
	if core.Sanitize() {
		t.Error("-commsan leaked: sanitizer still on after run returned")
	}
}

// TestNegativeCountsAreUsageErrors: a negative count or duration is
// rejected with exit 2 and a line naming the flag, before anything runs.
func TestNegativeCountsAreUsageErrors(t *testing.T) {
	defer resetGlobals()
	for _, flag := range [][]string{
		{"-j", "-3"},
		{"-workers", "-2"},
		{"-max-retries", "-1"},
		{"-timeout", "-1s"},
	} {
		code, out, errOut := runCLI(flag[0], flag[1], "run", "table1")
		if code != 2 {
			t.Errorf("%s %s: exit = %d, want 2", flag[0], flag[1], code)
		}
		if want := "columbia: " + flag[0] + " must be"; !strings.Contains(errOut, want) {
			t.Errorf("%s %s: stderr %q does not contain %q", flag[0], flag[1], errOut, want)
		}
		if out != "" {
			t.Errorf("%s %s: printed output before rejecting the flag:\n%s", flag[0], flag[1], out)
		}
	}
}

func TestTimeoutFlagParses(t *testing.T) {
	defer resetGlobals()
	var out, errOut strings.Builder
	// A generous per-point budget must not perturb a healthy run.
	if code := run(context.Background(), []string{"-timeout", "5m", "-max-retries", "1", "run", "table1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr: %s", code, errOut.String())
	}
}

// runCLI is a convenience wrapper returning code, stdout and stderr.
func runCLI(args ...string) (int, string, string) {
	var out, errOut strings.Builder
	code := run(context.Background(), args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestWorkersByteIdentity: the supervised multi-process sweep produces the
// exact bytes of the serial run for every fleet size, plain and under
// -commsan, whose toggle reaches the workers through the handshake.
func TestWorkersByteIdentity(t *testing.T) {
	defer resetGlobals()
	for _, flags := range [][]string{nil, {"-commsan"}} {
		args := append(flags, "run", "table1", "stride")
		resetGlobals()
		code, serial, _ := runCLI(args...)
		if code != 0 {
			t.Fatalf("%v serial exit = %d", flags, code)
		}
		for _, w := range []string{"2", "4"} {
			resetGlobals()
			code, out, errOut := runCLI(append([]string{"-workers", w}, args...)...)
			if code != 0 {
				t.Fatalf("%v -workers %s exit = %d\nstderr: %s", flags, w, code, errOut)
			}
			if out != serial {
				t.Errorf("%v -workers %s output differs from serial\n--- serial ---\n%s\n--- workers ---\n%s",
					flags, w, serial, out)
			}
		}
	}
}

// TestWorkersChaosByteIdentity: any crash schedule that leaves points
// completable yields byte-identical output — crashes are invisible in
// stdout, visible only in the stderr fleet summary.
func TestWorkersChaosByteIdentity(t *testing.T) {
	defer resetGlobals()
	for _, chaos := range []string{"wkill=1", "wkill=1,wtrunc=2", "wcorrupt=2"} {
		resetGlobals()
		code, serial, _ := runCLI("-faults", chaos, "run", "stride")
		if code != 0 {
			t.Fatalf("serial chaos run exit = %d", code)
		}
		resetGlobals()
		code, out, errOut := runCLI("-workers", "2", "-faults", chaos, "run", "stride")
		if code != 0 {
			t.Fatalf("chaos %q exit = %d\nstderr: %s", chaos, code, errOut)
		}
		if out != serial {
			t.Errorf("chaos %q output differs from serial\n--- serial ---\n%s\n--- chaos ---\n%s",
				chaos, serial, out)
		}
		if !strings.Contains(errOut, "worker fleet:") || !strings.Contains(errOut, "crash(es)") {
			t.Errorf("chaos %q: fleet summary missing from stderr: %q", chaos, errOut)
		}
	}
}

// TestNoiseEnsembleWorkersByteIdentity: a seeded noise ensemble renders
// the exact bytes of the serial run under a supervised worker fleet — the
// noise spec crosses the handshake, the replica index crosses the point
// spec, and both sides derive identical cache keys. A chaos schedule that
// crashes workers mid-ensemble must not perturb a single byte either.
func TestNoiseEnsembleWorkersByteIdentity(t *testing.T) {
	defer resetGlobals()
	args := []string{"-noise", "jitter=uniform:0.1,seed=7", "-replicas", "3", "run", "stride"}
	code, serial, _ := runCLI(args...)
	if code != 0 {
		t.Fatalf("serial ensemble exit = %d", code)
	}
	if !strings.Contains(serial, "±") {
		t.Errorf("ensemble output has no distribution cells:\n%s", serial)
	}
	resetGlobals()
	code, fleet, errOut := runCLI(append([]string{"-workers", "2"}, args...)...)
	if code != 0 {
		t.Fatalf("-workers 2 ensemble exit = %d\nstderr: %s", code, errOut)
	}
	if fleet != serial {
		t.Errorf("-workers 2 ensemble differs from serial\n--- serial ---\n%s\n--- workers ---\n%s",
			serial, fleet)
	}
	// Worker chaos: the noise directives ride -noise, the crash schedule
	// rides -faults; crashes are retried invisibly.
	chaosArgs := append([]string{"-workers", "2", "-faults", "wkill=1"}, args...)
	resetGlobals()
	code, chaos, errOut := runCLI(chaosArgs...)
	if code != 0 {
		t.Fatalf("chaos ensemble exit = %d\nstderr: %s", code, errOut)
	}
	if chaos != serial {
		t.Errorf("chaotic fleet ensemble differs from serial\n--- serial ---\n%s\n--- chaos ---\n%s",
			serial, chaos)
	}
	if !strings.Contains(errOut, "worker fleet:") {
		t.Errorf("fleet summary missing from stderr: %q", errOut)
	}
	if core.NoisePlan() != nil || core.Replicas() != 1 {
		t.Error("-noise/-replicas leaked into the process globals after run returned")
	}
}

// TestBadNoiseSpecIsUsageError: malformed -noise and -replicas values are
// rejected before any experiment runs.
func TestBadNoiseSpecIsUsageError(t *testing.T) {
	defer resetGlobals()
	if code, _, errOut := runCLI("-noise", "jitter=bogus:0.1", "run", "stride"); code != 2 {
		t.Fatalf("bad -noise exit = %d, want 2 (stderr %q)", code, errOut)
	} else if !strings.Contains(errOut, "bogus") {
		t.Errorf("stderr should name the bad distribution: %q", errOut)
	}
	if code, _, errOut := runCLI("-replicas", "0", "run", "stride"); code != 2 {
		t.Fatalf("-replicas 0 exit = %d, want 2 (stderr %q)", code, errOut)
	}
}

// TestWorkersQuarantinePoisonPoint: a schedule that kills the worker on
// every request poisons every point; the sweep survives, each cell degrades
// to !workercrash, and the run exits 1 with the full failure summary.
func TestWorkersQuarantinePoisonPoint(t *testing.T) {
	defer resetGlobals()
	code, out, errOut := runCLI("-workers", "1", "-faults", "wkill=0", "run", "stride")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, errOut)
	}
	if !strings.Contains(out, "!workercrash") {
		t.Errorf("quarantined cells missing from output:\n%s", out)
	}
	// Analytic rows (no sweep points) still render alongside.
	if !strings.Contains(out, "DGEMM per-CPU") {
		t.Errorf("healthy rows missing:\n%s", out)
	}
	for _, want := range []string{"point(s) failed", "failures by kind: workercrash=3", "quarantined"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stderr summary missing %q: %q", want, errOut)
		}
	}
}

// TestCanceledRunReportsPartialResults: SIGINT/SIGTERM arrive as context
// cancellation; points degrade to !canceled cells and the run exits 1 with
// a partial-results notice instead of aborting.
func TestCanceledRunReportsPartialResults(t *testing.T) {
	defer resetGlobals()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errOut strings.Builder
	if code := run(ctx, []string{"run", "stride"}, &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "!canceled") {
		t.Errorf("canceled cells missing:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "interrupted") || !strings.Contains(errOut.String(), "partial") {
		t.Errorf("partial-results notice missing: %q", errOut.String())
	}
}

func TestFailureSummaryTalliesKinds(t *testing.T) {
	defer resetGlobals()
	_, _, errOut := runCLI("-faults", "nodedown=0", "run", "stride")
	if !strings.Contains(errOut, "failures by kind: node-down=3") {
		t.Errorf("kind tally missing: %q", errOut)
	}
}
