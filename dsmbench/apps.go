package main

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/coherence"
	"repro/internal/grouping"
	"repro/internal/topology"
)

// The apps-k4 workload: the paper's Table 6 applications on a 4x4 mesh
// under UI-UA. An op is one shared-memory reference. A pass replays the
// three applications in turn, each on a fresh machine. Each application is
// replayed one barrier episode at a time (apps.Run per episode, on the
// same machine), which keeps every barrier's rendezvous and cost and gives
// a host latency sample per episode: the time from one barrier release to
// the next.
const appsK = 4

// appInput is one generated application, split at its barriers.
type appInput struct {
	name     string
	episodes []apps.Workload
	refs     int64
}

// appsBench holds the generated traces and the reference counts.
type appsBench struct {
	inputs []appInput
	want   simCounts
	r      *report
	// replayMS collects the traced phase's per-application replay times.
	replayMS map[string][]float64
}

// genApps generates the three applications from seed (LU's structure has
// no random input).
func genApps(seed uint64) []appInput {
	ws := []struct {
		name string
		w    apps.Workload
	}{
		{"barnes", apps.BarnesHut(apps.BarnesConfig{Seed: seed})},
		{"lu", apps.LU(apps.LUConfig{})},
		{"apsp", apps.APSP(apps.APSPConfig{Seed: seed})},
	}
	out := make([]appInput, len(ws))
	for i, x := range ws {
		st := x.w.Stats()
		out[i] = appInput{name: x.name, episodes: splitEpisodes(x.w), refs: int64(st.Reads + st.Writes)}
	}
	return out
}

// splitEpisodes cuts a workload after each barrier. Every processor reaches
// the same number of barriers, so episode e holds each processor's ops up
// to and including its e-th barrier; the ops after the last barrier form a
// final episode. A trace whose processors disagree on the barrier count is
// kept whole.
func splitEpisodes(w apps.Workload) []apps.Workload {
	cuts := make([][]int, len(w.Programs))
	for p, prog := range w.Programs {
		for i, op := range prog {
			if op.Kind == apps.OpBarrier {
				cuts[p] = append(cuts[p], i+1)
			}
		}
		if len(cuts[p]) != len(cuts[0]) {
			return []apps.Workload{w}
		}
	}
	var eps []apps.Workload
	for e := 0; e <= len(cuts[0]); e++ {
		ep := w
		ep.Programs = make([]apps.Program, len(w.Programs))
		empty := true
		for p, prog := range w.Programs {
			lo, hi := 0, len(prog)
			if e > 0 {
				lo = cuts[p][e-1]
			}
			if e < len(cuts[p]) {
				hi = cuts[p][e]
			}
			ep.Programs[p] = prog[lo:hi]
			empty = empty && lo == hi
		}
		if !empty {
			eps = append(eps, ep)
		}
	}
	return eps
}

// replay runs one application on a fresh machine, episode by episode, and
// folds its counts into c.
func replay(in appInput, lat *[]float64, c *simCounts) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: panic: %v", in.name, p)
		}
	}()
	m := coherence.NewMachine(coherence.DefaultParams(appsK, grouping.UIUA))
	for i, ep := range in.episodes {
		t0 := time.Now()
		apps.Run(m, ep)
		if lat != nil {
			*lat = append(*lat, ms(time.Since(t0)))
		}
		if !m.Quiesced() {
			return fmt.Errorf("%s: episode %d left %d worms in flight", in.name, i, m.Net.Outstanding())
		}
	}
	if err := m.CheckInvariants(); err != nil {
		return fmt.Errorf("%s: %w", in.name, err)
	}
	c.add(m)
	c.ops += in.refs
	return nil
}

// pass replays every application once.
// Each application replay is one timed segment.
func (b *appsBench) pass(lat *[]float64, traced bool, mark func()) (c simCounts, err error) {
	for _, in := range b.inputs {
		t0 := time.Now()
		if err := replay(in, lat, &c); err != nil {
			return c, err
		}
		mark()
		if traced {
			b.replayMS[in.name] = append(b.replayMS[in.name], ms(time.Since(t0)))
		}
	}
	return c, nil
}

// measuredPass runs one pass and checks its counts against the warm-up's.
func (b *appsBench) measuredPass(lat *[]float64, traced bool, mark func()) int64 {
	c, err := b.pass(lat, traced, mark)
	b.r.attempted += b.want.ops
	switch {
	case err != nil:
		b.r.fail(b.want.ops-c.ops, "apps-k4: %v", err)
	case c != b.want:
		b.r.fail(c.ops, "apps-k4: pass counts %+v differ from the warm-up's %+v", c, b.want)
	}
	return c.ops
}

// newApps generates the traces and runs the warm-up pass, whose counts
// every measured pass must reproduce.
func newApps(seed uint64, r *report) (*appsBench, error) {
	b := &appsBench{r: r, inputs: genApps(seed), replayMS: map[string][]float64{}}
	var err error
	b.want, err = b.pass(nil, false, func() {})
	return b, err
}

func runApps(cfg config, r *report) {
	var (
		b        *appsBench
		setupErr error
	)
	r.set("setup_s", timeSetups(func() {
		next, err := newApps(cfg.seed, r)
		if err == nil && b != nil && next.want != b.want {
			err = fmt.Errorf("warm-up counts %+v differ between set-ups (%+v)", next.want, b.want)
		}
		if setupErr == nil {
			setupErr = err
		}
		b = next
	}))
	var refs int64
	for _, in := range b.inputs {
		refs += in.refs
		r.note("%s: %d refs in %d barrier episodes", in.name, in.refs, len(in.episodes))
	}
	r.attempted += refs
	if setupErr != nil {
		r.fail(refs, "apps-k4 warm-up: %v", setupErr)
		return
	}
	e := b.want.exact()
	r.note("exact per ref (seed %d): events %v, sim cycles %v, flit-hops %v, inval sim cycles %v",
		cfg.seed, e.EventsPerOp, e.CyclesPerOp, e.FlitHopsPerOp, e.InvalCycles)
	if cfg.seed == defaultSeed {
		if err := checkExact("apps-k4", e); err != nil {
			r.fail(refs, "apps-k4: %v", err)
		}
	}
	measure(cfg, r, b.measuredPass)
	if !cfg.trace {
		return
	}
	b.want.report(r)
	for _, in := range b.inputs {
		r.set("apps.replay_ms."+in.name, median(b.replayMS[in.name]))
	}
	b.replayRefs(r)
}

// replayRefs times single references alone: the first refs of every
// processor's program, taken round-robin across processors and issued one
// at a time (Read+Run or Write+Run) on a fresh machine per application.
func (b *appsBench) replayRefs(r *report) {
	const perApp = 8192
	var readUS, writeUS []float64
	for _, in := range b.inputs {
		m := coherence.NewMachine(coherence.DefaultParams(appsK, grouping.UIUA))
		o := newOpRunner(m)
		pos := make([]int, len(in.episodes[0].Programs))
		n := 0
		for ep := 0; ep < len(in.episodes) && n < perApp; ep++ {
			progs := in.episodes[ep].Programs
			for p := range pos {
				pos[p] = 0
			}
			for more := true; more && n < perApp; {
				more = false
				for p, prog := range progs {
					for pos[p] < len(prog) && prog[pos[p]].Kind != apps.OpRead && prog[pos[p]].Kind != apps.OpWrite {
						pos[p]++
					}
					if pos[p] == len(prog) {
						continue
					}
					more = true
					op := prog[pos[p]]
					pos[p]++
					write := op.Kind == apps.OpWrite
					t0 := time.Now()
					if err := o.do(write, topology.NodeID(p), op.Block); err != nil {
						r.fail(1, "apps-k4: single-reference replay: %v", err)
						return
					}
					us := float64(time.Since(t0)) / 1e3
					if write {
						writeUS = append(writeUS, us)
					} else {
						readUS = append(readUS, us)
					}
					n++
				}
			}
		}
	}
	r.set("coherence.read_us", median(readUS))
	r.set("coherence.write_txn_us", median(writeUS))
}
