// Package trace captures node-activation traces from instrumented runs
// of the serial Rete matcher. A trace is the input to the PSM simulator
// (internal/psm), mirroring §6 of the paper: "the inputs to the
// simulator consist of a detailed trace of node activations from an
// actual run of a production system (the trace contains information
// about the dependencies between node activations), and a cost model".
//
// The same events give §4's per-change counts, and this package is the
// one place they are derived (Counts): productions affected per WM
// change and node activations per change. The matcher itself keeps
// none of them.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/cost"
	"repro/internal/ops5"
	"repro/internal/rete"
)

// Task is one node activation with its dependency edge and cost.
type Task struct {
	// ID is the unique activation id within the trace.
	ID int64
	// Parent is the activation that scheduled this one; 0 means the
	// task becomes ready at the start of its batch.
	Parent int64
	// Batch is the recognize-act cycle index; batches are separated by
	// synchronization barriers.
	Batch int
	// Change is the WM-change index within the batch.
	Change int
	// NodeID identifies the network node (for exclusive-access
	// modelling); 0 means no exclusivity constraint.
	NodeID int
	// Prod is the index in the plan's Productions of the one production
	// the activated node serves, for production-level parallelism
	// experiments; -1 for a root and a node several productions share.
	Prod int
	// Kind is the activation kind.
	Kind rete.NodeKind
	// Cost is the serial instruction cost of the activation.
	Cost float64
	// SharedBy is the number of productions sharing the node.
	SharedBy int
	// Indexed reports whether a two-input activation probed a hash
	// bucket instead of scanning the opposite memory; Probed is the
	// number of candidates tested either way, and OppSize the opposite
	// memory's total population (Probed == OppSize when not indexed).
	Indexed bool `json:",omitempty"`
	Probed  int  `json:",omitempty"`
	OppSize int  `json:",omitempty"`
}

// Trace is a complete activation trace.
type Trace struct {
	// Name labels the workload.
	Name string
	// Tasks holds every activation, grouped by increasing Batch.
	Tasks []Task
	// Batches is the number of recognize-act cycles.
	Batches int
	// Changes is the total number of WM changes.
	Changes int
	// Firings is the number of production firings (≈ Changes /
	// changes-per-firing); used for rule-firings/sec reporting.
	Firings int
}

// TotalCost sums the serial instruction cost of all tasks.
func (tr *Trace) TotalCost() float64 {
	var s float64
	for i := range tr.Tasks {
		s += tr.Tasks[i].Cost
	}
	return s
}

// CostPerChange returns the mean serial instructions per WM change.
func (tr *Trace) CostPerChange() float64 {
	if tr.Changes == 0 {
		return 0
	}
	return tr.TotalCost() / float64(tr.Changes)
}

// Write serialises the trace as JSON.
func (tr *Trace) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

// Read deserialises a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	var tr Trace
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	return &tr, nil
}

// Recorder wraps a Rete network as an engine.Matcher that records a
// trace while matching. Each Apply call becomes one batch.
type Recorder struct {
	Net   *rete.Network
	Model cost.Model
	Trace Trace
	// Counts holds the recorded changes' per-change figures.
	Counts Counts

	batch int
}

// NewRecorder instruments the network. The network's Tracer is
// replaced; conflict callbacks on the network remain the caller's.
func NewRecorder(name string, net *rete.Network, model cost.Model) *Recorder {
	r := &Recorder{Net: net, Model: model}
	r.Trace.Name = name
	r.Counts.init(net.Plan)
	net.Tracer = func(ev rete.ActivationEvent) {
		r.Counts.Observe(ev)
		r.Trace.Tasks = append(r.Trace.Tasks, Task{
			ID:       ev.Seq,
			Parent:   ev.Parent,
			Batch:    r.batch,
			Change:   ev.Change,
			NodeID:   ev.NodeID,
			Prod:     r.Counts.prods[ev.NodeID] - 1,
			Kind:     ev.Kind,
			Cost:     model.Cost(ev),
			SharedBy: ev.SharedBy,
			Indexed:  ev.Indexed,
			Probed:   ev.TokensTested,
			OppSize:  ev.OppSize,
		})
	}
	return r
}

// Apply records one batch and forwards it to the network.
func (r *Recorder) Apply(changes []ops5.Change) {
	r.Net.Apply(changes)
	r.Trace.Changes += len(changes)
	r.batch++
	r.Trace.Batches = r.batch
}

// NoteFiring records production firings for throughput reporting.
func (r *Recorder) NoteFiring(n int) { r.Trace.Firings += n }
