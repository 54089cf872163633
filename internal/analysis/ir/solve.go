package ir

// Dir is a dataflow direction.
type Dir int

const (
	// Forward propagates facts along successor edges (chanlive's
	// must-have-observed).
	Forward Dir = iota
	// Backward propagates facts along predecessor edges
	// (postdominators).
	Backward
)

// A Problem is one dataflow instance: a direction, the boundary fact at
// the entry (Forward) or exit (Backward) block, the initial fact for every
// other block (the lattice top, so the first meet does not clamp), a meet
// operator, and a monotone transfer function. Transfer must not mutate its
// input fact; it returns a fresh (or identical, if unchanged) value.
type Problem[F any] struct {
	Dir      Dir
	Boundary F
	Init     F
	Meet     func(F, F) F
	Equal    func(F, F) bool
	Transfer func(*Block, F) F
}

// Facts holds a solved instance: the fact flowing into and out of each
// block (in the problem's direction — for Backward problems In is the fact
// at the block's end), plus the number of transfer applications the
// worklist needed, which convergence tests bound.
type Facts[F any] struct {
	In, Out map[*Block]F
	Steps   int
}

// Solve runs the worklist algorithm to a fixed point. Blocks are seeded in
// index order (reversed for backward problems) and re-queued only when an
// output fact changes, so iteration order — and therefore Steps — is
// deterministic for a given graph.
func Solve[F any](g *Graph, p Problem[F]) Facts[F] {
	f := Facts[F]{In: make(map[*Block]F, len(g.Blocks)), Out: make(map[*Block]F, len(g.Blocks))}
	boundary := g.Entry
	if p.Dir == Backward {
		boundary = g.Exit
	}
	for _, b := range g.Blocks {
		f.In[b] = p.Init
		f.Out[b] = p.Transfer(b, p.Init)
	}
	f.In[boundary] = p.Boundary
	f.Out[boundary] = p.Transfer(boundary, p.Boundary)

	sources := func(b *Block) []*Block {
		if p.Dir == Forward {
			return b.Preds
		}
		return b.Succs
	}
	sinks := func(b *Block) []*Block {
		if p.Dir == Forward {
			return b.Succs
		}
		return b.Preds
	}

	queue := make([]*Block, 0, len(g.Blocks))
	queued := make(map[*Block]bool, len(g.Blocks))
	push := func(b *Block) {
		if !queued[b] {
			queued[b] = true
			queue = append(queue, b)
		}
	}
	if p.Dir == Forward {
		for _, b := range g.Blocks {
			push(b)
		}
	} else {
		for i := len(g.Blocks) - 1; i >= 0; i-- {
			push(g.Blocks[i])
		}
	}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		queued[b] = false
		in := f.In[b]
		if b != boundary {
			srcs := sources(b)
			if len(srcs) > 0 {
				in = f.Out[srcs[0]]
				for _, s := range srcs[1:] {
					in = p.Meet(in, f.Out[s])
				}
			}
		}
		f.In[b] = in
		out := p.Transfer(b, in)
		f.Steps++
		if !p.Equal(out, f.Out[b]) {
			f.Out[b] = out
			for _, s := range sinks(b) {
				push(s)
			}
		}
	}
	return f
}

// Postdominators computes, for every block, the set of blocks that
// postdominate it: B postdominates A when every path from A to the exit
// block passes through B (every block postdominates itself). It is the
// backward must-analysis over the identity transfer plus the block itself,
// and the substrate of control-dependence queries: a block A is
// conditionally executed after a branch head C exactly when A is reachable
// from C but does not postdominate it.
func Postdominators(g *Graph) map[*Block]map[*Block]bool {
	all := make(map[*Block]bool, len(g.Blocks))
	for _, b := range g.Blocks {
		all[b] = true
	}
	f := Solve(g, Problem[map[*Block]bool]{
		Dir:      Backward,
		Boundary: map[*Block]bool{},
		Init:     all,
		Meet:     intersectBlocks,
		Equal:    equalBlocks,
		Transfer: func(b *Block, in map[*Block]bool) map[*Block]bool {
			out := make(map[*Block]bool, len(in)+1)
			for k := range in {
				out[k] = true
			}
			out[b] = true
			return out
		},
	})
	pdom := make(map[*Block]map[*Block]bool, len(g.Blocks))
	for _, b := range g.Blocks {
		pdom[b] = f.Out[b]
	}
	return pdom
}

func intersectBlocks(a, b map[*Block]bool) map[*Block]bool {
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	out := make(map[*Block]bool, len(small))
	for k := range small {
		if large[k] {
			out[k] = true
		}
	}
	return out
}

func equalBlocks(a, b map[*Block]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
