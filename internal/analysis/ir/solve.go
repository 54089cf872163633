package ir

// A Problem is one forward dataflow instance: the boundary fact at the
// entry block, the initial fact for every other block (the lattice top, so
// the first meet does not clamp), a meet operator, and a monotone transfer
// function. Transfer must not mutate its input fact; it returns a fresh
// (or identical, if unchanged) value.
type Problem[F any] struct {
	Boundary F
	Init     F
	Meet     func(F, F) F
	Equal    func(F, F) bool
	Transfer func(*Block, F) F
}

// Facts holds a solved instance: the fact flowing into and out of each
// block, plus the number of transfer applications the worklist needed,
// which convergence tests bound.
type Facts[F any] struct {
	In, Out map[*Block]F
	Steps   int
}

// Solve runs the worklist algorithm to a fixed point, propagating facts
// along successor edges (lockorder's must-held). Blocks are seeded in
// index order and re-queued only when an output fact changes, so
// iteration order — and therefore Steps — is deterministic for a given
// graph.
func Solve[F any](g *Graph, p Problem[F]) Facts[F] {
	f := Facts[F]{In: make(map[*Block]F, len(g.Blocks)), Out: make(map[*Block]F, len(g.Blocks))}
	for _, b := range g.Blocks {
		f.In[b] = p.Init
		f.Out[b] = p.Transfer(b, p.Init)
	}
	f.In[g.Entry] = p.Boundary
	f.Out[g.Entry] = p.Transfer(g.Entry, p.Boundary)

	queue := make([]*Block, 0, len(g.Blocks))
	queued := make(map[*Block]bool, len(g.Blocks))
	push := func(b *Block) {
		if !queued[b] {
			queued[b] = true
			queue = append(queue, b)
		}
	}
	for _, b := range g.Blocks {
		push(b)
	}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		queued[b] = false
		in := f.In[b]
		if b != g.Entry && len(b.Preds) > 0 {
			in = f.Out[b.Preds[0]]
			for _, s := range b.Preds[1:] {
				in = p.Meet(in, f.Out[s])
			}
		}
		f.In[b] = in
		out := p.Transfer(b, in)
		f.Steps++
		if !p.Equal(out, f.Out[b]) {
			f.Out[b] = out
			for _, s := range b.Succs {
				push(s)
			}
		}
	}
	return f
}
