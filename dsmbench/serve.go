package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/load"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// The serve-zipf workload: dsmsimd self-hosted in-process, driven by a
// closed loop of nproc clients (each blocks on its reply, as dsmsimctl
// callers do). A client draws a point from a Zipf(1.0) popularity over the
// universe and submits it as a synchronous one-point run job; half the
// time it then fetches the same point's stored result by fingerprint. The
// memory LRU holds a quarter of the universe, so misses run the engine and
// put (the writes) while hits and fetches are store gets (the reads).
const (
	serveUniverse = 1024
	serveCacheCap = 256
	serveZipfS    = 1.0
	serveFetch    = 0.5 // share of run requests followed by a result fetch
	serveWindow   = 200 // throughput is the median rate over windows of this many completions
)

// serveTemplate shapes every universe point; only the seed differs.
var serveTemplate = load.PointTemplate{K: 8, Scheme: "MI-MA-ec", D: 8, Pattern: "random", Trials: 8}

// serveBench holds the universe, its reference results and the daemon.
type serveBench struct {
	u      *load.Universe
	points []sweep.Point
	// want holds each point's RunPointDirect measures as JSON, the bytes
	// every served copy must match.
	want   [][]byte
	d      *service.Daemon
	client *load.Client
	r      *report
}

// clientLog is one client's record of a load phase.
type clientLog struct {
	lat     []float64 // ms, every request
	doneAt  []float64 // completion offsets from the phase start, s
	bySrc   map[service.Source][]float64
	runs    int64 // run requests sent
	fetches int64
	failed  int64
	sources map[service.Source]int64
	errs    []string
}

func (c *clientLog) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// newServe builds the universe and its reference results, computed with
// sweep.RunPointDirect on nproc goroutines.
func newServe(seed uint64, r *report) (*serveBench, error) {
	u, err := load.NewUniverse(serveTemplate, seed, serveUniverse)
	if err != nil {
		return nil, err
	}
	b := &serveBench{u: u, r: r, points: make([]sweep.Point, serveUniverse), want: make([][]byte, serveUniverse)}
	for i, spec := range u.Specs {
		if b.points[i], err = spec.Point(0); err != nil {
			return nil, err
		}
	}
	sweep.Each(runtime.NumCPU(), serveUniverse, func(i int) {
		m, _ := sweep.RunPointDirect(context.Background(), b.points[i])
		b.want[i], _ = json.Marshal(m)
	})
	return b, nil
}

// start launches the daemon and warms it: every universe point is run once,
// coldest first, so the cache ends holding the hottest points.
func (b *serveBench) start() error {
	if err := b.startDaemon(service.NewMemoryStore(serveCacheCap)); err != nil {
		return err
	}
	var (
		mu   sync.Mutex
		errs []string
	)
	sweep.Each(runtime.NumCPU(), serveUniverse, func(i int) {
		if err := b.run(context.Background(), serveUniverse-1-i, nil); err != nil {
			mu.Lock()
			errs = append(errs, err.Error())
			mu.Unlock()
		}
	})
	b.r.attempted += serveUniverse
	if len(errs) > 0 {
		b.r.fail(int64(len(errs)), "serve-zipf warm-up: %s", errs[0])
	}
	return nil
}

// startDaemon launches the daemon over the given result store.
func (b *serveBench) startDaemon(store service.ResultStore) error {
	d, err := service.StartDaemon(service.DaemonConfig{Service: service.Config{
		Workers:   runtime.NumCPU(),
		Store:     store,
		MetricCap: 1 << 18,
	}})
	if err != nil {
		return err
	}
	b.d, b.client = d, load.NewClient(d.BaseURL())
	return nil
}

func (b *serveBench) stop() {
	if b.d == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.d.Shutdown(ctx); err != nil {
		b.r.fail(1, "serve-zipf: shutdown: %v", err)
	}
	if err := b.d.Err(); err != nil {
		b.r.fail(1, "serve-zipf: serve loop: %v", err)
	}
	b.d = nil
}

// run submits point i as a synchronous job and checks the served result.
// src, when non-nil, receives the source that served it.
func (b *serveBench) run(ctx context.Context, i int, src *service.Source) error {
	res, err := b.client.RunPoint(ctx, "", b.u.Specs[i], 0)
	if err != nil {
		return err
	}
	if len(res.Results) != 1 {
		return fmt.Errorf("point %d: job returned %d results", i, len(res.Results))
	}
	got := res.Results[0]
	if got.Partial || got.Quarantined {
		return fmt.Errorf("point %d: partial=%v quarantined=%v", i, got.Partial, got.Quarantined)
	}
	if src != nil {
		*src = got.Source
	}
	return b.check(i, got.Fingerprint, got.Measures)
}

// check compares a served result with the point's reference bytes.
func (b *serveBench) check(i int, fp string, m sweep.Measures) error {
	if fp != b.u.Fingerprints[i] {
		return fmt.Errorf("point %d: served fingerprint %s, want %s", i, fp, b.u.Fingerprints[i])
	}
	got, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if string(got) != string(b.want[i]) {
		return fmt.Errorf("point %d (%s): served measures differ from RunPointDirect", i, fp)
	}
	return nil
}

// client is one closed-loop client: request, wait, repeat until deadline.
func (b *serveBench) client1(id int, seed uint64, start, deadline time.Time, log *clientLog) {
	rng := sim.NewRNG(sim.DeriveSeed(seed, uint64(1000+id)))
	z := load.NewZipf(rng, serveZipfS, serveUniverse)
	ctx := context.Background()
	done := func(t0 time.Time) float64 {
		now := time.Now()
		log.doneAt = append(log.doneAt, now.Sub(start).Seconds())
		l := ms(now.Sub(t0))
		log.lat = append(log.lat, l)
		return l
	}
	for time.Now().Before(deadline) {
		i := z.Next()
		fetch := rng.Float64() < serveFetch
		var src service.Source
		t0 := time.Now()
		err := b.run(ctx, i, &src)
		l := done(t0)
		log.runs++
		if err != nil {
			log.fail("run: %v", err)
			continue
		}
		log.sources[src]++
		log.bySrc[src] = append(log.bySrc[src], l)
		if !fetch {
			continue
		}
		t0 = time.Now()
		res, found, err := b.client.Result(ctx, b.u.Fingerprints[i])
		done(t0)
		log.fetches++
		switch {
		case err != nil:
			log.fail("fetch: %v", err)
		case !found:
			log.fail("fetch: point %d not in the store just after its run", i)
		default:
			if err := b.check(i, res.Fingerprint, res.Measures); err != nil {
				log.fail("fetch: %v", err)
			}
		}
	}
}

// phase runs the closed loop for d and returns the merged client log.
func (b *serveBench) phase(seed uint64, d time.Duration) *clientLog {
	n := runtime.NumCPU()
	logs := make([]*clientLog, n)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := range logs {
		logs[i] = &clientLog{bySrc: map[service.Source][]float64{}, sources: map[service.Source]int64{}}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b.client1(i, seed, start, deadline, logs[i])
		}(i)
	}
	wg.Wait()
	all := &clientLog{bySrc: map[service.Source][]float64{}, sources: map[service.Source]int64{}}
	for _, l := range logs {
		all.lat = append(all.lat, l.lat...)
		all.doneAt = append(all.doneAt, l.doneAt...)
		all.runs += l.runs
		all.fetches += l.fetches
		all.failed += l.failed
		all.errs = append(all.errs, l.errs...)
		for _, s := range []service.Source{service.SourceCache, service.SourceRun, service.SourceCoalesced} {
			all.bySrc[s] = append(all.bySrc[s], l.bySrc[s]...)
			all.sources[s] += l.sources[s]
		}
	}
	b.r.attempted += all.runs + all.fetches
	if all.failed > 0 {
		b.r.fail(all.failed, "serve-zipf: %s", strings.Join(all.errs, "; "))
	}
	return all
}

// windowRates returns the completion rate over each run of serveWindow
// consecutive completions.
func windowRates(doneAt []float64) []float64 {
	t := sorted(doneAt)
	var rates []float64
	for i := 0; i+serveWindow < len(t); i += serveWindow {
		if d := t[i+serveWindow] - t[i]; d > 0 {
			rates = append(rates, serveWindow/d)
		}
	}
	return rates
}

// stats fetches the daemon's counters.
func (b *serveBench) stats() service.Counters {
	st, err := b.client.Stats(context.Background())
	if err != nil {
		b.r.fail(1, "serve-zipf: /v1/stats: %v", err)
		return service.Counters{}
	}
	return st.Counters
}

// reconcile checks the daemon's counter deltas against what the clients
// saw: every run request resolved exactly once, by the source the job
// reported, with no shed and no duplicate engine run.
func (b *serveBench) reconcile(before, after service.Counters, l *clientLog) {
	okRuns := l.sources[service.SourceCache] + l.sources[service.SourceRun] + l.sources[service.SourceCoalesced]
	type pair struct {
		what      string
		got, want uint64
	}
	for _, p := range []pair{
		{"requests", after.Requests - before.Requests, uint64(okRuns)},
		{"cache_hits", after.CacheHits - before.CacheHits, uint64(l.sources[service.SourceCache])},
		{"runs", after.Runs - before.Runs, uint64(l.sources[service.SourceRun])},
		{"coalesced", after.Coalesced - before.Coalesced, uint64(l.sources[service.SourceCoalesced])},
		{"shed", after.Shed - before.Shed, 0},
		{"duplicate_runs", after.DuplicateRuns, 0},
	} {
		if p.got != p.want {
			b.r.fail(1, "serve-zipf: /v1/stats %s moved by %d, clients saw %d", p.what, p.got, p.want)
		}
	}
}

func runServe(cfg config, r *report) {
	b, err := newServe(cfg.seed, r)
	if err != nil {
		r.attempted++
		r.fail(1, "serve-zipf: %v", err)
		return
	}
	defer b.stop()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		b.stop()
		t0 := time.Now()
		err := b.start()
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			r.attempted++
			r.fail(1, "serve-zipf: start: %v", err)
			return
		}
	}
	r.set("setup_s", median(setups))
	d := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		before := b.stats()
		l := b.phase(cfg.seed, d)
		b.reconcile(before, b.stats(), l)
		r.set("ops_per_s", median(windowRates(l.doneAt)))
		setLatency(r, l.lat)
		b.noteShares(l)
		return
	}
	start := b.stats()
	untraced := b.phase(cfg.seed, d/2)
	before := b.stats()
	b.reconcile(start, before, untraced)
	tr := startTrace()
	l := b.phase(sim.DeriveSeed(cfg.seed, 1), d/2)
	tr.stop(r, l.runs+l.fetches)
	after := b.stats()
	b.reconcile(before, after, l)
	setOverhead(r, median(windowRates(untraced.doneAt)), median(windowRates(l.doneAt)))
	b.noteShares(l)
	b.layerMetrics(r, before, after, l)
}

// noteShares records how the client time splits between requests that ran
// the engine and the rest (hits, coalesced waits and fetches).
func (b *serveBench) noteShares(l *clientLog) {
	var total, run float64
	for _, v := range l.lat {
		total += v
	}
	for _, v := range l.bySrc[service.SourceRun] {
		run += v
	}
	b.r.note("%d requests (%d runs, %d fetches); sources %v; engine-run requests take %.1f%% of client time, the hit and fetch path %.1f%%",
		len(l.lat), l.runs, l.fetches, l.sources, 100*run/total, 100*(1-run/total))
	b.r.set("service.run_path_share", run/total)
}

// layerMetrics reports the daemon's counters, its per-request metric log,
// and single-layer replays of the hit path and the point runner.
func (b *serveBench) layerMetrics(r *report, before, after service.Counters, l *clientLog) {
	reqs := float64(after.Requests - before.Requests)
	r.set("service.hit_frac", float64(after.CacheHits-before.CacheHits)/reqs)
	r.set("service.coalesced_frac", float64(after.Coalesced-before.Coalesced)/reqs)
	r.set("service.runs_per_op", float64(after.Runs-before.Runs)/float64(l.runs+l.fetches))
	r.set("service.shed_frac", float64(after.Shed-before.Shed)/reqs)
	if nb := after.Batches - before.Batches; nb > 0 {
		r.set("service.batch_size_mean", float64(after.BatchedRequests-before.BatchedRequests)/float64(nb))
	}
	b.metricLog(r, before.Requests)

	// The hit path alone: Service.Resolve in process on cached points.
	svc := b.d.Service()
	var cached []int
	for i, fp := range b.u.Fingerprints {
		if _, ok, _ := svc.Store().Get(fp); ok {
			cached = append(cached, i)
		}
	}
	var resolveUS []float64
	ctx := context.Background()
	for k := 0; k < 4000 && len(cached) > 0; k++ {
		i := cached[k%len(cached)]
		t0 := time.Now()
		m, _, src, err := svc.Resolve(ctx, b.points[i], 0, "bench-resolve")
		resolveUS = append(resolveUS, float64(time.Since(t0))/1e3)
		if err == nil && src == service.SourceCache {
			err = b.check(i, b.u.Fingerprints[i], m)
		} else if err == nil {
			err = fmt.Errorf("point %d resolved from %s, want cache", i, src)
		}
		if err != nil {
			r.fail(1, "serve-zipf: Resolve replay: %v", err)
			break
		}
	}
	resolve := median(resolveUS)
	r.set("service.resolve_us.p50", resolve)
	r.set("service.http_overhead_us", median(l.bySrc[service.SourceCache])*1e3-resolve)

	// The store alone, on the universe's own results.
	measures := make([]sweep.Measures, serveUniverse)
	for i, raw := range b.want {
		if err := json.Unmarshal(raw, &measures[i]); err != nil {
			r.fail(1, "serve-zipf: %v", err)
			return
		}
	}
	var getUS, putUS []float64
	for round := 0; round < 20; round++ {
		st := service.NewMemoryStore(serveCacheCap)
		for i := range measures {
			t0 := time.Now()
			err := st.Put(b.u.Fingerprints[i], measures[i])
			putUS = append(putUS, float64(time.Since(t0))/1e3)
			if err != nil {
				r.fail(1, "serve-zipf: store put: %v", err)
			}
		}
		for i := range measures {
			t0 := time.Now()
			st.Get(b.u.Fingerprints[i])
			getUS = append(getUS, float64(time.Since(t0))/1e3)
		}
	}
	r.set("service.store_get_us", median(getUS))
	r.set("service.store_put_us", median(putUS))

	ns, _ := timeCalls(serveUniverse, func(i int) { b.points[i].Fingerprint() })
	r.set("sweep.fingerprint_us", ns/1e3)
	var runMS []float64
	for i := 0; i < 32; i++ {
		t0 := time.Now()
		sweep.RunPointDirect(ctx, b.points[i])
		runMS = append(runMS, ms(time.Since(t0)))
	}
	r.set("sweep.run_point_ms", median(runMS))
}

// metricLog reads the daemon's /v1/metrics CSV and reports the queue wait
// and engine run time of the records after seq0.
func (b *serveBench) metricLog(r *report, seq0 uint64) {
	text, err := b.client.MetricsCSV(context.Background())
	if err != nil {
		r.fail(1, "serve-zipf: /v1/metrics: %v", err)
		return
	}
	rows, err := csv.NewReader(strings.NewReader(text)).ReadAll()
	if err != nil || len(rows) == 0 {
		r.fail(1, "serve-zipf: /v1/metrics CSV: %v", err)
		return
	}
	col := map[string]int{}
	for i, h := range rows[0] {
		col[h] = i
	}
	var wait, run []float64
	for _, row := range rows[1:] {
		seq, err := strconv.ParseUint(row[col["seq"]], 10, 64)
		if err != nil || seq <= seq0 {
			continue
		}
		qw, _ := strconv.ParseFloat(row[col["queue_wait_micros"]], 64)
		wait = append(wait, qw/1e3)
		if row[col["source"]] == string(service.SourceRun) {
			rm, _ := strconv.ParseFloat(row[col["run_micros"]], 64)
			run = append(run, rm/1e3)
		}
	}
	r.set("service.queue_wait_ms.p50", median(wait))
	if p99, ok := percentile(wait, 99); ok {
		r.set("service.queue_wait_ms.p99", p99)
	}
	r.set("service.run_ms.p50", median(run))
}
