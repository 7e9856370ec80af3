package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"repro/internal/coherence"
	"repro/internal/topology"
)

// simCounts are the deterministic totals of one measured pass: the same
// inputs on a fresh machine must reproduce them bit for bit.
type simCounts struct {
	ops                                   int64
	events, cycles                        uint64
	flitHops, worms, copies, gatherWaits  uint64
	invals, invalCycles, homeMsgs, groups uint64
	cacheHits, cacheMisses                uint64
}

// add folds machine m's totals into c (ops are counted by the caller).
func (c *simCounts) add(m *coherence.Machine) {
	c.events += m.Engine.Fired()
	c.cycles += uint64(m.Engine.Now())
	st := m.Net.Stats()
	c.flitHops += st.FlitHops
	c.worms += st.Injected
	c.copies += st.Copies
	c.gatherWaits += st.GatherWait
	for _, rec := range m.Metrics.Invals {
		c.invals++
		c.invalCycles += uint64(rec.Latency())
		c.homeMsgs += uint64(rec.HomeMsgs)
		c.groups += uint64(rec.Groups)
	}
	for n := 0; n < m.Mesh.Nodes(); n++ {
		cs := m.Cache(topology.NodeID(n)).Stats()
		c.cacheHits += cs.Hits
		c.cacheMisses += cs.Misses
	}
}

// exact are the per-op figures pinned for the default seed.
type exact struct {
	EventsPerOp   float64 `json:"sim.events_per_op"`
	CyclesPerOp   float64 `json:"sim.cycles_per_op"`
	FlitHopsPerOp float64 `json:"network.flit_hops_per_op"`
	InvalCycles   float64 `json:"coherence.inval_cycles"`
}

func (c simCounts) exact() exact {
	ops := float64(c.ops)
	return exact{
		EventsPerOp:   float64(c.events) / ops,
		CyclesPerOp:   float64(c.cycles) / ops,
		FlitHopsPerOp: float64(c.flitHops) / ops,
		InvalCycles:   float64(c.invalCycles) / float64(c.invals),
	}
}

//go:embed expected.json
var expectedJSON []byte

// checkExact compares a workload's default-seed figures with expected.json.
func checkExact(name string, got exact) error {
	var want map[string]exact
	if err := json.Unmarshal(expectedJSON, &want); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	w, ok := want[name]
	if !ok {
		return fmt.Errorf("expected.json has no entry for %s", name)
	}
	if got != w {
		return fmt.Errorf("exact counts for seed %d moved: got %+v, expected.json has %+v", defaultSeed, got, w)
	}
	return nil
}

// report sets the exact per-layer figures of one pass.
func (c simCounts) report(r *report) {
	ops := float64(c.ops)
	e := c.exact()
	r.set("sim.events_per_op", e.EventsPerOp)
	r.set("sim.cycles_per_op", e.CyclesPerOp)
	r.set("network.flit_hops_per_op", e.FlitHopsPerOp)
	r.set("network.worms_per_op", float64(c.worms)/ops)
	r.set("network.copies_per_op", float64(c.copies)/ops)
	r.set("network.gather_wait_per_op", float64(c.gatherWaits)/ops)
	r.set("coherence.inval_cycles", e.InvalCycles)
	r.set("coherence.home_msgs_per_txn", float64(c.homeMsgs)/float64(c.invals))
	r.set("grouping.worms_per_txn", float64(c.groups)/float64(c.invals))
	r.set("cache.hit_frac", float64(c.cacheHits)/float64(c.cacheHits+c.cacheMisses))
	r.set("cache.misses_per_op", float64(c.cacheMisses)/ops)
}
