package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/directory"
	"repro/internal/grouping"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The inval-k16 workload: the paper's invalidation transaction on a 16x16
// mesh under MI-MA-ec. Each op is d = 16 sharer reads of a fresh block
// homed at the mesh centre, then one write by a node that is neither home
// nor sharer. A pass replays every generated transaction on a fresh
// machine.
const (
	invalK      = 16
	invalD      = 16
	invalPerRun = 1024 // transactions per pass
	invalSeg    = 128  // transactions per timed segment of a pass
)

var invalScheme = grouping.MIMAEC

// invalTxn is one generated transaction.
type invalTxn struct {
	sharers []topology.NodeID
	writer  topology.NodeID
}

// invalBench holds the generated inputs and the reference counts.
type invalBench struct {
	mesh *topology.Mesh
	home topology.NodeID
	txns []invalTxn
	want simCounts
	r    *report
	// readUS and writeUS collect the traced passes' per-op timings. They are
	// allocated up front and stop growing when full, so the runtime metrics
	// of the traced phase count the simulator's allocations, not these.
	readUS, writeUS []float64
}

// genInval draws the sharer sets and writers from seed: sharers uniformly
// among the non-home nodes, the writer uniformly among the rest.
func genInval(seed uint64, mesh *topology.Mesh, home topology.NodeID) []invalTxn {
	rng := sim.NewRNG(seed)
	n := mesh.Nodes()
	txns := make([]invalTxn, invalPerRun)
	for i := range txns {
		taken := make([]bool, n)
		taken[home] = true
		sh := make([]topology.NodeID, 0, invalD)
		for _, idx := range rng.Sample(n-1, invalD) {
			id := topology.NodeID(idx)
			if id >= home {
				id++
			}
			sh = append(sh, id)
			taken[id] = true
		}
		w := topology.NodeID(rng.Intn(n))
		for taken[w] {
			w = topology.NodeID(rng.Intn(n))
		}
		txns[i] = invalTxn{sharers: sh, writer: w}
	}
	return txns
}

// blockOf returns transaction i's block: distinct per transaction, homed at
// the centre.
func (b *invalBench) blockOf(i int) directory.BlockID {
	return directory.BlockID(uint64(b.home) + uint64(i+1)*uint64(b.mesh.Nodes()))
}

// opRunner drives blocking operations on one machine without allocating a
// completion closure per op.
type opRunner struct {
	m    *coherence.Machine
	done bool
	fn   func()
}

func newOpRunner(m *coherence.Machine) *opRunner {
	o := &opRunner{m: m}
	o.fn = func() { o.done = true }
	return o
}

var errIncomplete = errors.New("operation did not complete")

// do issues one read or write and runs the engine until it drains.
func (o *opRunner) do(write bool, n topology.NodeID, b directory.BlockID) error {
	o.done = false
	if write {
		o.m.Write(n, b, o.fn)
	} else {
		o.m.Read(n, b, o.fn)
	}
	o.m.Engine.Run()
	if !o.done {
		return errIncomplete
	}
	if !o.m.Quiesced() {
		return fmt.Errorf("%d worms in flight after the op", o.m.Net.Outstanding())
	}
	return nil
}

// pass replays every transaction on a fresh machine and returns its counts.
// A failed op ends the pass; the rest of its transactions count as failed.
func (b *invalBench) pass(lat *[]float64, traced bool, mark func()) (c simCounts, err error) {
	done := 0
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
		if err != nil {
			err = fmt.Errorf("txn %d of %d: %w", done, len(b.txns), err)
		}
		c.ops = int64(done)
	}()
	m := coherence.NewMachine(coherence.DefaultParams(invalK, invalScheme))
	o := newOpRunner(m)
	for i, tx := range b.txns {
		blk := b.blockOf(i)
		invals := len(m.Metrics.Invals)
		t0 := time.Now()
		for _, s := range tx.sharers {
			if err := o.do(false, s, blk); err != nil {
				return c, err
			}
			if traced {
				t1 := time.Now()
				if len(b.readUS) < cap(b.readUS) {
					b.readUS = append(b.readUS, float64(t1.Sub(t0))/1e3)
				}
				t0 = t1
			}
		}
		if err := o.do(true, tx.writer, blk); err != nil {
			return c, err
		}
		switch {
		case lat != nil:
			*lat = append(*lat, ms(time.Since(t0)))
		case traced && len(b.writeUS) < cap(b.writeUS):
			b.writeUS = append(b.writeUS, float64(time.Since(t0))/1e3)
		}
		if err := b.checkTxn(m, tx, blk, invals); err != nil {
			return c, err
		}
		done++
		if done%invalSeg == 0 {
			mark()
		}
	}
	if err := m.CheckInvariants(); err != nil {
		return c, err
	}
	c.add(m)
	return c, nil
}

// checkTxn verifies a completed transaction: one new invalidation of all d
// sharers, every sharer's line Invalid, the writer holding the line.
func (b *invalBench) checkTxn(m *coherence.Machine, tx invalTxn, blk directory.BlockID, invalsBefore int) error {
	if len(m.Metrics.Invals) != invalsBefore+1 {
		return fmt.Errorf("write produced %d invalidation transactions, want 1", len(m.Metrics.Invals)-invalsBefore)
	}
	if got := m.Metrics.Invals[invalsBefore].Sharers; got != invalD {
		return fmt.Errorf("invalidation covered %d sharers, want %d", got, invalD)
	}
	for _, s := range tx.sharers {
		if st := m.Cache(s).State(blk); st != cache.Invalid {
			return fmt.Errorf("sharer %d still holds block %d (%v)", s, blk, st)
		}
	}
	if st := m.Cache(tx.writer).State(blk); st != cache.ModifiedLine {
		return fmt.Errorf("writer %d holds block %d as %v, want modified", tx.writer, blk, st)
	}
	return nil
}

// measuredPass runs one pass and checks its counts against the warm-up's.
func (b *invalBench) measuredPass(lat *[]float64, traced bool, mark func()) int64 {
	c, err := b.pass(lat, traced, mark)
	b.r.attempted += int64(len(b.txns))
	switch {
	case err != nil:
		b.r.fail(int64(len(b.txns))-c.ops, "inval-k16: %v", err)
	case c != b.want:
		b.r.fail(c.ops, "inval-k16: pass counts %+v differ from the warm-up's %+v", c, b.want)
	}
	return c.ops
}

// newInval generates the inputs and runs the warm-up pass, whose counts
// every measured pass must reproduce.
func newInval(seed uint64, r *report) (*invalBench, error) {
	mesh := topology.NewSquareMesh(invalK)
	b := &invalBench{r: r, mesh: mesh, home: mesh.ID(topology.Coord{X: invalK / 2, Y: invalK / 2})}
	b.txns = genInval(seed, b.mesh, b.home)
	var err error
	b.want, err = b.pass(nil, false, func() {})
	return b, err
}

func runInval(cfg config, r *report) {
	var (
		b        *invalBench
		setupErr error
	)
	r.set("setup_s", timeSetups(func() {
		next, err := newInval(cfg.seed, r)
		if err == nil && b != nil && next.want != b.want {
			err = fmt.Errorf("warm-up counts %+v differ between set-ups (%+v)", next.want, b.want)
		}
		if setupErr == nil {
			setupErr = err
		}
		b = next
	}))
	r.attempted += int64(len(b.txns))
	if setupErr != nil {
		r.fail(int64(len(b.txns)), "inval-k16 warm-up: %v", setupErr)
		return
	}
	e := b.want.exact()
	r.note("exact per txn (seed %d): events %v, sim cycles %v, flit-hops %v, inval sim cycles %v",
		cfg.seed, e.EventsPerOp, e.CyclesPerOp, e.FlitHopsPerOp, e.InvalCycles)
	if cfg.seed == defaultSeed {
		if err := checkExact("inval-k16", e); err != nil {
			r.fail(int64(len(b.txns)), "inval-k16: %v", err)
		}
	}
	if cfg.trace {
		b.readUS = make([]float64, 0, 8*invalPerRun*invalD)
		b.writeUS = make([]float64, 0, 8*invalPerRun)
	}
	measure(cfg, r, b.measuredPass)
	if !cfg.trace {
		return
	}
	b.want.report(r)
	r.set("coherence.read_us", median(b.readUS))
	r.set("coherence.write_txn_us", median(b.writeUS))
	b.replayLayers(r)
}

// replayLayers times grouping and BRCP routing alone on the run's own
// sharer sets: grouping.Groups per transaction, Base.PathThrough per
// resulting group, Base.UnicastPathInto per sharer-to-home ack path.
func (b *invalBench) replayLayers(r *report) {
	base := invalScheme.Base()
	var waypoints [][]topology.NodeID
	for _, tx := range b.txns {
		for _, g := range grouping.Groups(invalScheme, b.mesh, b.home, tx.sharers) {
			waypoints = append(waypoints, append([]topology.NodeID{b.home}, g.Members...))
		}
	}
	ns, allocs := timeCalls(len(b.txns), func(i int) {
		grouping.Groups(invalScheme, b.mesh, b.home, b.txns[i].sharers)
	})
	r.set("grouping.groups_ns", ns)
	r.set("grouping.groups_allocs", allocs)
	var pathErr error
	ns, allocs = timeCalls(len(waypoints), func(i int) {
		if _, err := base.PathThrough(b.mesh, waypoints[i]); err != nil {
			pathErr = err
		}
	})
	if pathErr != nil {
		r.fail(1, "inval-k16: PathThrough replay: %v", pathErr)
	}
	r.set("routing.path_through_ns", ns)
	r.set("routing.path_through_allocs", allocs)
	buf := make([]topology.NodeID, 0, 4*invalK)
	ns, _ = timeCalls(len(b.txns)*invalD, func(i int) {
		buf = base.UnicastPathInto(buf[:0], b.mesh, b.txns[i/invalD].sharers[i%invalD], b.home)
	})
	r.set("routing.unicast_path_ns", ns)
}

// timeCalls calls fn(0..n-1) in batches for about half a second and returns
// the median ns per call over the batches and the heap allocations per call.
func timeCalls(n int, fn func(i int)) (nsPerCall, allocsPerCall float64) {
	var per []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	calls := 0
	deadline := time.Now().Add(500 * time.Millisecond)
	for len(per) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per = append(per, float64(time.Since(t0))/float64(n))
		calls += n
	}
	runtime.ReadMemStats(&ms1)
	return median(per), float64(ms1.Mallocs-ms0.Mallocs) / float64(calls)
}
