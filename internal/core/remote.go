package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"sync/atomic"

	"columbia/internal/hpcc"
	"columbia/internal/machine"
	"columbia/internal/md"
	"columbia/internal/netmodel"
	"columbia/internal/npb"
	"columbia/internal/npbmz"
	"columbia/internal/par"
	"columbia/internal/pinning"
	"columbia/internal/sweep"
	"columbia/internal/vmpi"
)

// Dispatcher routes one sweep point to an out-of-process worker fleet and
// returns its serialized result. *dist.Supervisor satisfies it; core keeps
// only this interface so the experiment layer stays process-architecture
// agnostic (and import-cycle free). submitReplica passes the point's cache
// key as class; the fleet routes nothing by it, and it stays in the
// signature only because colbench's traced dispatchers implement it.
type Dispatcher interface {
	Do(ctx context.Context, class, kind, key string, spec []byte) ([]byte, error)
}

// remoteDispatcher, when installed, receives every submitted point instead
// of the in-process leaf path. Atomic for the same reason the sweep
// registries are: submissions happen on many goroutines.
var remoteDispatcher atomic.Pointer[Dispatcher]

// SetDispatcher installs (or, with nil, removes) the fleet dispatcher used
// by every subsequently submitted point. The cache key of a point is
// identical either way, so switching modes never invalidates memoization.
func SetDispatcher(d Dispatcher) {
	if d == nil {
		remoteDispatcher.Store(nil)
		return
	}
	remoteDispatcher.Store(&d)
}

func activeDispatcher() Dispatcher {
	if p := remoteDispatcher.Load(); p != nil {
		return *p
	}
	return nil
}

// ClusterRef names one of the experiments' cluster shapes in serializable
// form: a single node of a given type, or the four-box BX2b ensemble over
// NUMAlink4 ("nl") or InfiniBand ("ib").
type ClusterRef struct {
	Node machine.NodeType
	Quad string
}

func singleNode(nt machine.NodeType) ClusterRef { return ClusterRef{Node: nt} }

var (
	quadNL = ClusterRef{Quad: "nl"}
	quadIB = ClusterRef{Quad: "ib"}
)

// cluster materializes the referenced cluster. Construction is
// deterministic, so supervisor and worker build identical machines.
func (r ClusterRef) cluster() *machine.Cluster {
	switch r.Quad {
	case "nl":
		return machine.NewBX2bQuad()
	case "ib":
		return machine.NewBX2bQuadIB()
	}
	return machine.NewSingleNode(r.Node)
}

// PointSpec is the wire form of one sweep point: everything a worker
// process needs to rebuild the point's configuration — and, crucially, its
// cache key — bit-for-bit. The fault plan, sanitizer toggle and noise spec
// deliberately do not appear: they are process-global on both sides,
// installed in the worker from the protocol handshake, so a spec
// cannot smuggle in a configuration the handshake didn't establish. Every
// field must be folded into the cache key or the run configuration by
// buildPoint — a field the builder ignores can drift between processes
// without the key-drift check noticing.
//
//perflint:wire buildPoint
type PointSpec struct {
	// Kind selects the builder: "beff", "pingpong-lat", "npb-mpi",
	// "npb-omp", "mz" or "md-weak".
	Kind    string
	Cluster ClusterRef
	Procs   int
	Threads int
	Nodes   int
	Stride  int
	// Random selects b_eff's random ring pattern.
	Random bool
	// Bench and Class name the NPB/NPB-MZ workload where applicable.
	Bench string
	Class npb.Class
	// Factor is the compiler compute factor for "npb-omp".
	Factor float64
	// Pin and MPT parameterize the hybrid multi-zone runs.
	Pin pinning.Method
	MPT machine.MPTVersion
	// Replica selects the noise-ensemble replica. It reaches the cache key
	// only through the noise spec (withFaults binds it into Config.Noise),
	// so under a silent spec every replica of a point shares one key and
	// the ensemble memo-collapses to a single computation.
	Replica int
}

// buildPoint is the single source of truth for what a point spec means: it
// returns the point's canonical cache key and the closure that computes it.
// Both the submission side (any process) and the worker side call it, so a
// supervisor and a worker that disagree on the key — a builder version skew
// — are detected instead of silently filling cells from the wrong
// configuration. The key construction must stay byte-compatible with the
// historical in-process submission sites: golden outputs and memo caches
// key on it.
func buildPoint(spec PointSpec) (string, func(context.Context) (any, error), error) {
	switch spec.Kind {
	case "beff":
		cl := spec.Cluster.cluster()
		cfg := withFaults(vmpi.Config{Cluster: cl, Procs: spec.Procs, Nodes: spec.Nodes, RandomPattern: spec.Random}, spec.Replica)
		key := "beff/reps=3/" + cfg.Fingerprint()
		return key, func(ctx context.Context) (any, error) {
			var out hpcc.BeffResult
			_, err := vmpi.RunCtx(ctx, cfg, func(c par.Comm) {
				r := hpcc.Beff(c, 3)
				if c.Rank() == 0 {
					out = r
				}
			})
			return out, err
		}, nil
	case "pingpong-lat":
		cl := spec.Cluster.cluster()
		cfg := withFaults(vmpi.Config{Cluster: cl, Procs: spec.Procs, Stride: spec.Stride}, spec.Replica)
		key := "pingpong-lat/reps=3/" + cfg.Fingerprint()
		return key, func(ctx context.Context) (any, error) {
			var out float64
			_, err := vmpi.RunCtx(ctx, cfg, func(c par.Comm) {
				r := hpcc.PingPong(c, 3)
				if c.Rank() == 0 {
					out = r.Latency * 1e6
				}
			})
			return out, err
		}, nil
	case "npb-mpi":
		cfg := withFaults(vmpi.Config{Cluster: spec.Cluster.cluster(), Procs: spec.Procs}, spec.Replica)
		key := fmt.Sprintf("npb/mpi/%s/%s/%s", spec.Bench, spec.Class, cfg.Fingerprint())
		return key, func(ctx context.Context) (any, error) {
			fn, ct := npb.Skeleton(spec.Bench, spec.Class, spec.Procs)
			res, err := vmpi.RunCtx(ctx, cfg, fn)
			if err != nil {
				return 0.0, err
			}
			perIter := res.Time / npb.SkeletonIters
			return ct.Flops / perIter / float64(spec.Procs) / 1e9, nil
		}, nil
	case "npb-omp":
		// The OMP options derive deterministically from bench/class, which
		// the key prefix already pins, so the fingerprint omits them safely.
		cfg := withFaults(vmpi.Config{
			Cluster:       spec.Cluster.cluster(),
			Procs:         1,
			Threads:       spec.Threads,
			ComputeFactor: spec.Factor,
		}, spec.Replica)
		key := fmt.Sprintf("npb/omp/%s/%s/%s", spec.Bench, spec.Class, cfg.Fingerprint())
		return key, func(ctx context.Context) (any, error) {
			fn, ct := npb.Skeleton(spec.Bench, spec.Class, 1)
			cfg := cfg
			cfg.OMP = npb.OMPOptsFor(ct)
			res, err := vmpi.RunCtx(ctx, cfg, fn)
			if err != nil {
				return 0.0, err
			}
			perIter := res.Time / npb.SkeletonIters
			return ct.Flops / perIter / float64(spec.Threads) / 1e9, nil
		}, nil
	case "mz":
		// OMP options derive deterministically from bench/class (pinned by
		// the key prefix), and the MPT version is keyed explicitly because
		// the net model is built inside the point.
		cl := spec.Cluster.cluster()
		keyCfg := withFaults(vmpi.Config{Cluster: cl, Procs: spec.Procs, Threads: spec.Threads,
			Nodes: spec.Nodes, Pin: spec.Pin}, spec.Replica)
		key := fmt.Sprintf("mz/%s/%s/mpt=%s/%s", spec.Bench, spec.Class, spec.MPT, keyCfg.Fingerprint())
		return key, func(ctx context.Context) (any, error) {
			fn, info := npbmz.Skeleton(spec.Bench, spec.Class, spec.Procs)
			net := netmodel.New(cl)
			net.MPT = spec.MPT
			res, err := vmpi.RunCtx(ctx, vmpi.Config{
				Cluster:  cl,
				Net:      net,
				Procs:    spec.Procs,
				Threads:  spec.Threads,
				Nodes:    spec.Nodes,
				Pin:      spec.Pin,
				OMP:      info.OMPOpts(),
				Faults:   keyCfg.Faults,
				Noise:    keyCfg.Noise,
				Sanitize: keyCfg.Sanitize,
			}, fn)
			if err != nil {
				return 0.0, err
			}
			t := res.Time / npbmz.SkeletonIters
			if spec.Bench == "SP-MZ" {
				// The released-MPT InfiniBand anomaly taxes SP-MZ whole runs.
				t *= net.MPTRunFactor(spec.Procs)
			}
			return t, nil
		}, nil
	case "md-weak":
		w := md.PaperWeakScaling()
		cfg := withFaults(vmpi.Config{Cluster: spec.Cluster.cluster(), Procs: spec.Procs, Nodes: spec.Nodes}, spec.Replica)
		key := fmt.Sprintf("md-weak/atoms=%d/%s", w.AtomsPerProc, cfg.Fingerprint())
		return key, func(ctx context.Context) (any, error) {
			res, err := vmpi.RunCtx(ctx, cfg, w.Skeleton(spec.Procs))
			if err != nil {
				return 0.0, err
			}
			return res.Time / md.SkeletonSteps, nil
		}, nil
	}
	return "", nil, fmt.Errorf("core: unknown point kind %q", spec.Kind)
}

// submitPoint submits one experiment point as its noise ensemble: R
// replicas (R = Replicas(), 1 by default) that differ only in
// PointSpec.Replica, each an ordinary memoized sweep point. Under a noise
// spec the replicas key distinct cache entries (the replica index rides the
// noise fingerprint); without one they share a single key and the sweep
// memoizer collapses them to one computation, so -replicas without -noise
// costs nothing.
func submitPoint[T any](spec PointSpec) Ens[T] {
	n := Replicas()
	reps := make([]sweep.Future[T], n)
	for r := 0; r < n; r++ {
		s := spec
		s.Replica = r
		reps[r] = submitReplica[T](s)
	}
	return Ens[T]{reps: reps}
}

// submitReplica submits one replica to the sweep: through the installed
// dispatcher when the run is distributed, in-process otherwise. Both paths
// share buildPoint, so the cache key — and with it memoization and report
// output — is identical regardless of where the point executes.
func submitReplica[T any](spec PointSpec) sweep.Future[T] {
	key, run, err := buildPoint(spec)
	if err != nil {
		// An unbuildable spec is a bug at the submission site; surface it
		// as a failed future so the cell degrades instead of panicking.
		return sweep.CachedCtx(sweep.Default(), "invalid/"+spec.Kind, func(context.Context) (T, error) {
			var zero T
			return zero, err
		})
	}
	if d := activeDispatcher(); d != nil {
		return sweep.CachedRemote(sweep.Default(), key, func(ctx context.Context) (T, error) {
			var zero T
			raw, err := encodeSpec(spec)
			if err != nil {
				return zero, err
			}
			data, err := d.Do(ctx, key, spec.Kind, key, raw)
			if err != nil {
				return zero, err
			}
			return decodeResult[T](data)
		})
	}
	return sweep.CachedCtx(sweep.Default(), key, func(ctx context.Context) (T, error) {
		v, err := run(ctx)
		if err != nil {
			var zero T
			return zero, err
		}
		return v.(T), nil
	})
}

// ExecutePoint is the worker-process side of submitPoint: it rebuilds the
// point from its wire spec, verifies the key the supervisor routed by is
// the key this binary derives (catching any builder skew between parent
// and worker binaries), runs the point under ctx, and serializes the
// result. It satisfies dist.Executor; cmd/columbia wires it in.
func ExecutePoint(ctx context.Context, kind, key string, raw []byte) ([]byte, error) {
	var spec PointSpec
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&spec); err != nil {
		return nil, fmt.Errorf("core: decode point spec: %w", err)
	}
	if spec.Kind != kind {
		return nil, fmt.Errorf("core: point kind mismatch: request says %q, spec says %q", kind, spec.Kind)
	}
	derived, run, err := buildPoint(spec)
	if err != nil {
		return nil, err
	}
	if derived != key {
		return nil, fmt.Errorf("core: point key drift: supervisor routed %q, worker derives %q (builder version skew?)", key, derived)
	}
	v, err := run(ctx)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("core: encode point result: %w", err)
	}
	return buf.Bytes(), nil
}

func encodeSpec(spec PointSpec) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(spec); err != nil {
		return nil, fmt.Errorf("core: encode point spec: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeResult[T any](data []byte) (T, error) {
	var out T
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&out); err != nil {
		var zero T
		return zero, fmt.Errorf("core: decode point result: %w", err)
	}
	return out, nil
}
