package nullmodel

import (
	"hare/internal/temporal"
)

// Sampler draws null samples in place: the base graph's target and time
// columns are copied into reusable buffers, mutated there (TimeShuffle
// permutes the times, DegreeRewire rewires the targets) and rebuilt, with
// the base's source column, onto one reusable scratch graph. An ensemble
// therefore allocates O(1) graphs no matter how many samples it draws, and
// never a row-major copy of the base graph.
//
// The package-level Sample mutates its copies with the same mutate call but
// builds each sample into fresh storage, so the two draw bit-identical
// samples for the same seed by separate build paths.
//
// A Sampler is not safe for concurrent use; ensembles run one per worker.
type Sampler struct {
	base  *temporal.Graph
	model Model
	dst   []temporal.NodeID
	ts    []temporal.Timestamp
	rb    temporal.Rebuilder
}

// NewSampler returns a Sampler drawing from g under the given model.
func NewSampler(g *temporal.Graph, model Model) *Sampler {
	return &Sampler{base: g, model: model}
}

// Sample draws the null sample for one seed. The returned graph aliases the
// Sampler's scratch storage: the next Sample call overwrites it, so callers
// that need it longer must copy it (or use the package-level Sample).
func (s *Sampler) Sample(seed int64) (*temporal.Graph, error) {
	src := s.base.Src()
	s.dst = append(s.dst[:0], s.base.Dst()...)
	s.ts = append(s.ts[:0], s.base.Times()...)
	if err := mutate(src, s.dst, s.ts, s.model, seed); err != nil {
		return nil, err
	}
	return s.rb.RebuildColumns(src, s.dst, s.ts), nil
}
