package fault

import "testing"

// FuzzPlanParse fuzzes the -faults directive syntax for two properties:
// Parse never panics on arbitrary input (a malformed chaos plan must be a
// CLI usage error, not a crash), and every accepted spec round-trips
// through its canonical fingerprint — Parse(p.Fingerprint()) succeeds and
// reaches the same fingerprint fixed point. The fixed point matters
// operationally: the supervisor ships the active plan to worker processes
// as its fingerprint string, and a worker that re-parses it must rebuild
// the identical plan or cache keys drift between supervisor and fleet.
//
// The seed corpus lives under testdata/fuzz/FuzzPlanParse; `go test` replays
// it on every run, `go test -fuzz=FuzzPlanParse` explores from it.
func FuzzPlanParse(f *testing.F) {
	for _, seed := range []string{
		"",
		"transient",
		"slowcpu=0:3:1.5",
		"slownode=1:1.13,buslow=0:2:0.5",
		"linkdown=1:0.25,flap=2:0.01:0.5:0.1",
		"fabric=0:0.5,nodedown=3,transient",
		"wkill=3,wcorrupt=2,wtrunc=5,wstall=0",
		"slownode=0:1.13,wkill=0",
		"nodedown=0,nodedown=0",
		"linkdown=0:1e-300",
		"slowcpu=0:0:nan",
		"flap=0:1e308:1:1",
		"nodedown=1e300",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return // rejected specs just need to not panic
		}
		fp := p.Fingerprint()
		q, err := Parse(fp)
		if err != nil {
			t.Fatalf("fingerprint %q of accepted spec %q does not re-parse: %v", fp, spec, err)
		}
		if fp2 := q.Fingerprint(); fp2 != fp {
			t.Fatalf("fingerprint not a fixed point for spec %q:\n first  %q\n second %q", spec, fp, fp2)
		}
		if p.Empty() != (fp == "") {
			t.Fatalf("Empty()=%v inconsistent with fingerprint %q for spec %q", p.Empty(), fp, spec)
		}
	})
}
