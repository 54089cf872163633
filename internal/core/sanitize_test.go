package core

import "testing"

// TestSanitizedExperimentsByteIdentical is the observes-never-perturbs
// acceptance criterion: every registered experiment runs clean under the
// communication sanitizer and renders byte-identical output. The sanitize
// toggle changes each point's fingerprint, so the sanitized pass recomputes
// every sweep point rather than replaying the unsanitized cache. It
// compares the renderings that TestEngineDifferential's plain and commsan
// modes left under the pick check (renderings); one it finds missing it
// renders itself, on a fresh pool under the same check (checkPicks).
func TestSanitizedExperimentsByteIdentical(t *testing.T) {
	agree := checkPicks(t)
	defer SetSanitize(false)
	render := func(e Experiment, mode string, sanitize bool) string {
		if out, ok := renderings.LoadAndDelete(e.ID + "/" + mode); ok {
			return out.(string)
		}
		SetSanitize(sanitize)
		return experimentCSV(e)
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && heavyExperiments[e.ID] {
				t.Skip("heavy experiment in -short mode")
			}
			plain := render(e, "plain", false)
			sanitized := render(e, "commsan", true)
			agree(t)
			if plain != sanitized {
				t.Fatalf("%s: sanitizer perturbed output\n--- plain ---\n%s\n--- sanitized ---\n%s",
					e.ID, plain, sanitized)
			}
		})
	}
}
