package vmpi

import (
	"fmt"
	"strings"

	"columbia/internal/machine"
)

// Fingerprint returns a canonical string identifying every Config input
// that can influence a simulation's Result. Two Configs with equal
// fingerprints produce bit-identical results for the same rank program, so
// the sweep scheduler uses the fingerprint (prefixed with a workload
// identity) as its cache key. Clusters are described structurally — fabric,
// node-type sequence, InfiniBand card counts — because NodeSpecs are fixed
// per type, so independently constructed but equivalent clusters
// deliberately collide.
func (c Config) Fingerprint() string {
	var b strings.Builder
	b.WriteString("cl=")
	clusterFingerprint(&b, c.Cluster)
	mpt := machine.MPT111b
	if c.Net != nil {
		mpt = c.Net.MPT
		if c.Net.C != c.Cluster {
			b.WriteString("|netcl=")
			clusterFingerprint(&b, c.Net.C)
		}
	}
	fmt.Fprintf(&b, "|mpt=%s|p=%d|t=%d|n=%d|s=%d|pin=%s|cf=%g|rand=%v",
		mpt, c.Procs, c.Threads, c.Nodes, c.Stride, c.Pin, c.ComputeFactor, c.RandomPattern)
	o := c.OMP
	fmt.Fprintf(&b, "|omp=%g/%s/%d/%g/%d/%v",
		o.SharedFraction, o.Method, o.Regions, o.SerialFraction, o.MaxUseful, o.SharedWorkingSet)
	// Injected faults change results, so they must change the cache key;
	// healthy configs keep their historical fingerprints byte-identical.
	if !c.Faults.Empty() {
		b.WriteString("|faults=")
		b.WriteString(c.Faults.Fingerprint())
	}
	// Stochastic noise changes results draw by draw, and the ensemble
	// replica index selects a distinct stream even under one seed, so the
	// whole spec — distribution, seed, replica — keys the cache;
	// noiseless configs keep their historical fingerprints byte-identical.
	if !c.Noise.Empty() {
		b.WriteString("|noise=")
		b.WriteString(c.Noise.Fingerprint())
	}
	// The sanitizer never perturbs timing, but sanitized runs can fail
	// where unsanitized runs succeed, so the toggle must split the cache;
	// unsanitized fingerprints stay byte-identical to past releases.
	if c.Sanitize {
		b.WriteString("|commsan=1")
	}
	return b.String()
}

func clusterFingerprint(b *strings.Builder, cl *machine.Cluster) {
	if cl == nil {
		b.WriteString("nil")
		return
	}
	fmt.Fprintf(b, "%s/ib%dx%d/", cl.Fabric, cl.IBCardsPerNode, cl.IBConnsPerCard)
	for i, nd := range cl.Nodes {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(nd.Spec.Type.String())
	}
}
