package ops5

// Slab hands out zero values of T carved from chunks it allocates: the
// first chunk holds SlabFirst values, each next one twice the last, up
// to SlabMax, so N values cost about log2(N/SlabFirst)+1 allocations
// while chunks double and one per SlabMax after that. Nothing goes back
// to a slab: a chunk lives as long as anything points into it, and its
// owner recycles values itself if it recycles them at all. Working
// memory carves its elements' headers from one (wm.Memory.Carve), and
// each Rete executor its fresh tokens (rete.TokenSlab). The zero Slab
// is ready to use and allocates nothing until its first New.
type Slab[T any] struct {
	chunk []T
	built int
}

// The chunk policy of every Slab.
const (
	SlabFirst = 16
	SlabMax   = 256
)

// New returns a zero value no one else holds.
func (s *Slab[T]) New() *T {
	if len(s.chunk) == 0 {
		// The values built so far plus SlabFirst is twice the last chunk.
		s.chunk = make([]T, min(s.built+SlabFirst, SlabMax))
	}
	v := &s.chunk[0]
	s.chunk = s.chunk[1:]
	s.built++
	return v
}

// Built returns how many values the slab has handed out.
func (s *Slab[T]) Built() int { return s.built }
