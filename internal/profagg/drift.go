// Drift detection: does the aggregated profile change the allocation?
//
// The paper's web promotion is a deterministic pipeline: identify webs
// over the call graph and reference sets (profile-independent — web
// membership depends only on which procedures may reference which
// globals), compute each web's priority from the dynamic call counts,
// discard webs the economic filter rejects, then greedily color the
// survivors in (priority desc, ID asc) order against a
// profile-independent interference relation. The profile therefore
// influences the coloring through exactly one artifact: the ordered list
// of considered webs. If the aggregate's mean profile reproduces the
// order the current allocation was trained on — same webs surviving the
// filter, same sequence — the greedy walk visits the same webs in the
// same order over the same interference structure and must assign the
// same colors, so re-analysis would change nothing and is skipped.
//
// Comparing raw count deltas against a threshold could not make that
// guarantee in either direction: tiny deltas near a filter threshold or
// a priority tie flip the order (false negative), while huge uniform
// count inflation — a fleet simply running more — changes no relative
// order at all (false positive). Order comparison is exact on the
// no-change side and only conservatively wrong on the change side: an
// order flip among webs that coloring would place identically triggers a
// re-analysis that confirms, at full precision, nothing changed.
package profagg

import (
	"fmt"
	"sort"

	"ipra/internal/callgraph"
	"ipra/internal/core"
	"ipra/internal/parv"
	"ipra/internal/refsets"
	"ipra/internal/summary"
	"ipra/internal/webs"
)

// DriftModel holds the allocation-relevant skeleton of one program — the
// call graph, reference sets, and web partition, all profile-independent
// — plus the considered-web priority order of the profile the current
// allocation was trained on. Checking a candidate profile re-runs only
// the cheap count-dependent tail (ApplyProfile, ComputePriorities,
// filter, sort), not web identification.
//
// Methods are not safe for concurrent use; the Store serializes access.
type DriftModel struct {
	graph *callgraph.Graph
	sets  *refsets.Sets
	webs  []*webs.Web

	filter webs.FilterOptions
	// DirectiveHash identifies the program database of the allocation
	// the model's base order belongs to; records measured under any
	// other hash are stale.
	DirectiveHash string
	// baseOrder is the considered-web ID sequence under the trained
	// profile.
	baseOrder []int
}

// NewDriftModel builds the skeleton from the program's summaries and
// records the priority order under the profile the current allocation
// was trained on. filter mirrors the analyzer's options (the zero value
// selects the same default the analyzer applies); jobs bounds web
// identification parallelism.
func NewDriftModel(sums []*summary.ModuleSummary, filter webs.FilterOptions, jobs int, trained *parv.Profile, directiveHash string) (*DriftModel, error) {
	if trained == nil {
		return nil, fmt.Errorf("profagg: drift model needs the trained profile")
	}
	g, err := callgraph.Build(sums)
	if err != nil {
		return nil, fmt.Errorf("profagg: drift model: %w", err)
	}
	if filter == (webs.FilterOptions{}) {
		filter = webs.DefaultFilter()
	}
	eligible := refsets.EligibleGlobals(g)
	sets := refsets.Compute(g, eligible)
	m := &DriftModel{
		graph:         g,
		sets:          sets,
		webs:          webs.IdentifyJobs(g, sets, jobs),
		filter:        filter,
		DirectiveHash: directiveHash,
	}
	m.baseOrder = m.orderFor(trained)
	return m, nil
}

// orderFor computes the considered-web priority order under p: exactly
// the sequence the analyzer's web coloring consumes — economic
// filter plus the structural discards, survivors sorted by (priority
// desc, ID asc).
func (m *DriftModel) orderFor(p *parv.Profile) []int {
	m.graph.ApplyProfile(p)
	webs.ComputePriorities(m.graph, m.sets, m.webs)
	for _, w := range m.webs {
		w.Discarded = false
		w.DiscardReason = ""
	}
	webs.Filter(m.webs, m.filter)
	core.ApplyStructuralDiscards(m.graph, m.webs)
	var cs []*webs.Web
	for _, w := range m.webs {
		if !w.Discarded {
			cs = append(cs, w)
		}
	}
	sort.SliceStable(cs, func(i, j int) bool {
		if cs[i].Priority != cs[j].Priority {
			return cs[i].Priority > cs[j].Priority
		}
		return cs[i].ID < cs[j].ID
	})
	order := make([]int, len(cs))
	for i, w := range cs {
		order[i] = w.ID
	}
	return order
}

// Drifted reports whether p would change the web-priority order — and
// hence possibly the coloring — relative to the trained profile.
func (m *DriftModel) Drifted(p *parv.Profile) bool {
	order := m.orderFor(p)
	if len(order) != len(m.baseOrder) {
		return true
	}
	for i, id := range order {
		if id != m.baseOrder[i] {
			return true
		}
	}
	return false
}

// BaseOrder returns a copy of the trained considered-web order (tests,
// diagnostics).
func (m *DriftModel) BaseOrder() []int {
	return append([]int(nil), m.baseOrder...)
}

// Rebase re-anchors the model after a re-analysis: the allocation is now
// trained on p (the aggregate's mean) under the new program database
// hash, so subsequent drift checks compare against p's order.
func (m *DriftModel) Rebase(p *parv.Profile, directiveHash string) {
	m.baseOrder = m.orderFor(p)
	m.DirectiveHash = directiveHash
}
