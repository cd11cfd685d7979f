package conflict_test

import (
	"testing"

	"repro/internal/conflict"
	"repro/internal/ops5"
)

// The conflict set's own budget (ROADMAP item 1a) at a Miss Manners
// sized set: a few hundred live three-element instantiations.

const benchInsts = 512

func benchSet() (*conflict.Set, []*ops5.Instantiation) {
	p := &ops5.Production{Name: "find_seating", LHS: []*ops5.CondElement{
		{Class: "c"}, {Class: "c"}, {Class: "c"},
	}}
	s := conflict.NewSet(conflict.LEX)
	insts := make([]*ops5.Instantiation, benchInsts)
	for i := range insts {
		insts[i] = inst(p, i+1, i+2, 2*i+7)
		s.Insert(insts[i])
	}
	return s, insts
}

// BenchmarkConflictSetInsertRemove is one conflict-set delta pair as a
// matcher pays it through the sink: a match removed and inserted again,
// which allocates nothing.
func BenchmarkConflictSetInsertRemove(b *testing.B) {
	s, insts := benchSet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := insts[i%benchInsts]
		s.RemoveMatch(in.Production, in.WMEs)
		s.InsertMatch(in.Production, in.WMEs)
	}
}

// BenchmarkConflictSetSelect is one selection over the whole set, into
// the set's scratch instantiation; the selected entry is
// replaced so the set stays at size and unfired.
func BenchmarkConflictSetSelect(b *testing.B) {
	s, _ := benchSet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := s.Select()
		s.RemoveMatch(in.Production, in.WMEs)
		s.InsertMatch(in.Production, in.WMEs)
	}
}
