package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"

	iawj "repro"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/hashtable"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/radix"
	"repro/internal/sortmerge"
	"repro/internal/window"
)

// phaseNames are the six phases of Result.PhaseNs, in its order.
var phaseNames = []string{"wait", "partition", "build_sort", "merge", "probe", "other"}

// perLayerDefs lists what the traced run reports, in BENCHMARK.json's
// order. Layers are this repository's modules. Every workload reports all
// of it: a layer the workload's job bypasses is still replayed on the
// workload's inputs, so its cost there is on record. The time metrics the
// untraced run measures are listed here too: none of them repeats within a
// bound this benchmark may set (README.md, "What is not gated").
func perLayerDefs() []metricDef {
	algs, eager := columns[:nAlgs], columns[eagerLo:eagerHi]
	var defs []metricDef
	for _, ph := range phaseNames {
		defs = append(defs, perColumn("core.phase_ms."+ph, "ms", algs)...)
	}
	defs = append(defs, perColumn("core.run_overhead_us", "us", algs)...)
	defs = append(defs,
		metricDef{"radix.partition_ns_per_tuple", "ns"},
		metricDef{"hashtable.build_ns_per_tuple", "ns"},
		metricDef{"hashtable.probe_ns_per_tuple", "ns"},
		metricDef{"hashtable.matches_per_probe", "count"},
		metricDef{"hashtable.shared_build_ns_per_tuple.t1", "ns"},
		metricDef{"hashtable.shared_build_ns_per_tuple.t2", "ns"},
		metricDef{"sortmerge.sort_ns_per_tuple", "ns"},
		metricDef{"sortmerge.merge_ns_per_tuple", "ns"},
		metricDef{"sortmerge.mergejoin_ns_per_tuple", "ns"},
		metricDef{"core.sink_ns_per_match", "ns"},
		metricDef{"clock.now_ns", "ns"},
	)
	defs = append(defs, perColumn("model.residual_pct", "%", algs)...)
	defs = append(defs,
		metricDef{"ingest.decode_ns_per_tuple", "ns"},
		metricDef{"ingest.wire_mb", "MB"},
		metricDef{"window.assign_ns_per_tuple", "ns"},
		metricDef{"window.pairs", "count"},
		metricDef{"window.copy_factor", "count"},
	)
	defs = append(defs, perColumn("stream.driver_self_ms", "ms", algs)...)
	defs = append(defs, perColumn("pool.alloc_mb", "MB", algs)...)
	defs = append(defs, metricDef{"pool.calibrate_ms", "ms"})
	defs = append(defs, perColumn("finish_ms", "ms", columns)...)
	defs = append(defs, perColumn("lat_p95_ms", "ms", eager)...)
	defs = append(defs, perColumn("eager.lat_p50_ms", "ms", eager)...)
	defs = append(defs, perColumn("eager.lat_p99_ms", "ms", eager)...)
	defs = append(defs, perColumn("eager.half_ms", "ms", eager)...)
	defs = append(defs,
		metricDef{"advise.profile_us", "us"},
		metricDef{"advise.regret_pct", "%"},
	)
	return append(defs,
		metricDef{"harness.calib_ms.start", "ms"},
		metricDef{"harness.calib_ms.end", "ms"},
		metricDef{"harness.traced_run_s", "s"},
	)
}

// layers is the traced run of one workload.
type layers struct {
	b      *bench
	s      *series
	log    *spanLog
	budget int64 // units of work one kernel timing should cover
}

// kernel times fn over enough repetitions to cover the unit budget, three
// times over, each after a collection, with a span around every call, and
// returns the median cost per unit in nanoseconds. prep, when set, runs
// before each call outside its span.
func (l *layers) kernel(name string, units int, prep, fn func()) float64 {
	reps := max(1, l.budget/int64(max(units, 1)))
	perUnit := make([]float64, 3)
	for i := range perUnit {
		runtime.GC()
		var total int64
		for r := int64(0); r < reps; r++ {
			if prep != nil {
				prep()
			}
			id := l.log.begin(0, name, "", int64(units))
			fn()
			total += l.log.end(id)
		}
		perUnit[i] = float64(total) / float64(reps) / float64(units)
	}
	return median(perUnit)
}

// rates are the replayed kernel costs the model predicts a join from, in
// nanoseconds per tuple (per match for sink, per call for now).
type rates struct {
	partition, build, probe, sharedT2 float64
	sort, merge, mergeJoin, sink      float64
	decode, assign                    float64
}

// shape is how much of each kind of work one job of the workload holds.
type shape struct {
	nR, nS  float64 // tuples entering joins (counted once per window they fall in)
	matches float64
	stream  float64 // tuples decoded and assigned to windows; 0 for a single join
}

// replayKernels times each kernel layer from outside on the workload's own
// tuples, on one goroutine unless stated: the stream-level layers (decode,
// window assignment) on the whole streams, the join kernels on what one
// join sees — the whole input, or the middle window of a windowed job.
func (l *layers) replayKernels() (rates, shape, error) {
	w, s := l.b.w, l.s
	var k rates

	// Stream layers. A single-window job is described to AssignPair as one
	// tumbling window, which is what the windowed driver would be told.
	wire, spec := w.wire, w.spec
	if !w.windowed {
		spec = iawj.WindowSpec{Kind: iawj.Tumbling, LengthMs: max(w.cfg.WindowMs, 1)}
		for i, rel := range []iawj.Relation{w.r, w.s} {
			var buf bytes.Buffer
			if err := ingest.WriteStream(&buf, "RS"[i], rel); err != nil {
				return k, shape{}, err
			}
			wire[i] = buf.Bytes()
		}
	}
	var decodeErr error
	k.decode = l.kernel("ingest.ReadStream", len(w.r), nil, func() {
		if _, _, err := ingest.ReadStream(bytes.NewReader(wire[0]), 0); err != nil {
			decodeErr = err
		}
	})
	if decodeErr != nil {
		return k, shape{}, decodeErr
	}
	var pairs []window.Pair
	var assignErr error
	nStream := len(w.r) + len(w.s)
	k.assign = l.kernel("window.AssignPair", nStream, nil, func() {
		pairs, assignErr = window.AssignPair(w.r, w.s, spec)
	})
	if assignErr != nil {
		return k, shape{}, assignErr
	}
	sh := shape{matches: float64(w.ref.Full.Count)}
	for _, p := range pairs {
		sh.nR += float64(len(p.R))
		sh.nS += float64(len(p.S))
	}
	if w.windowed {
		sh.stream = float64(nStream)
	}
	s.add("ingest.decode_ns_per_tuple", "ns", k.decode)
	s.add("ingest.wire_mb", "MB", float64(len(wire[0])+len(wire[1]))/1e6)
	s.add("window.assign_ns_per_tuple", "ns", k.assign)
	s.add("window.pairs", "count", float64(len(pairs)))
	s.add("window.copy_factor", "count", (sh.nR+sh.nS)/float64(nStream))

	// Join kernels.
	mid := pairs[len(pairs)/2]
	kr, ks := mid.R, mid.S
	if len(kr) == 0 || len(ks) == 0 {
		return k, sh, fmt.Errorf("%s: middle window has an empty side", w.name)
	}
	n := len(kr) + len(ks)

	part := radix.NewPartitioner()
	part.PartitionHashed(kr, 10, nil, 0) // sizes the scratch
	k.partition = l.kernel("radix.PartitionHashed", len(kr), nil, func() { part.PartitionHashed(kr, 10, nil, 0) })

	table := hashtable.New(len(kr))
	k.build = l.kernel("hashtable.InsertBatch", len(kr), table.Reset, func() { table.InsertBatch(kr) })
	var pairsBuf []iawj.Tuple
	var found int
	k.probe = l.kernel("hashtable.ProbeBatch", len(ks), nil, func() {
		found = 0
		for rest := ks; len(rest) > 0; {
			blk := rest[:min(len(rest), core.MatchBatch)]
			rest = rest[len(blk):]
			var m int
			pairsBuf, m = table.ProbeBatch(blk, pairsBuf[:0])
			found += m
		}
	})
	shared := hashtable.NewShared(len(kr))
	sharedT1 := l.kernel("hashtable.Shared.InsertBatch/1", len(kr), shared.Reset, func() { shared.InsertBatch(kr) })
	k.sharedT2 = l.kernel("hashtable.Shared.InsertBatch/2", len(kr), shared.Reset, func() {
		var wg sync.WaitGroup
		for _, half := range []iawj.Relation{kr[:len(kr)/2], kr[len(kr)/2:]} {
			wg.Add(1)
			go func(half iawj.Relation) {
				defer wg.Done()
				shared.InsertBatch(half)
			}(half)
		}
		wg.Wait()
	})
	s.add("radix.partition_ns_per_tuple", "ns", k.partition)
	s.add("hashtable.build_ns_per_tuple", "ns", k.build)
	s.add("hashtable.probe_ns_per_tuple", "ns", k.probe)
	s.add("hashtable.matches_per_probe", "count", float64(found)/float64(len(ks)))
	s.add("hashtable.shared_build_ns_per_tuple.t1", "ns", sharedT1)
	s.add("hashtable.shared_build_ns_per_tuple.t2", "ns", k.sharedT2)

	sortedR, sortedS := slices.Clone(kr), slices.Clone(ks)
	k.sort = l.kernel("sortmerge.SortByKey", len(kr), func() { copy(sortedR, kr) }, func() { sortmerge.SortByKey(sortedR, false, nil, 0) })
	sortmerge.SortByKey(sortedS, false, nil, 0)
	runs := []iawj.Relation{slices.Clone(kr[:len(kr)/2]), slices.Clone(kr[len(kr)/2:])}
	for _, run := range runs {
		sortmerge.SortByKey(run, false, nil, 0)
	}
	k.merge = l.kernel("sortmerge.MultiwayMerge", len(kr), nil, func() { sortmerge.MultiwayMerge(runs, false) })
	var joined int64
	count := func(_, _ iawj.Tuple) { joined++ }
	k.mergeJoin = l.kernel("sortmerge.MergeJoin", n, nil, func() { sortmerge.MergeJoin(sortedR, sortedS, count, nil, 0, 0) })
	s.add("sortmerge.sort_ns_per_tuple", "ns", k.sort)
	s.add("sortmerge.merge_ns_per_tuple", "ns", k.merge)
	s.add("sortmerge.mergejoin_ns_per_tuple", "ns", k.mergeJoin)

	const calls = 1 << 16
	ctx := &core.ExecContext{Clock: clock.NewStatic(core.DefaultNsPerSimMs), M: metrics.NewCollector(1)}
	sink := core.NewSink(ctx, 0)
	k.sink = l.kernel("core.Sink.Match", calls, nil, func() {
		for i := 0; i < calls; i++ {
			sink.Match(kr[0], ks[0])
		}
	})
	src := clock.NewScaled(core.DefaultNsPerSimMs)
	var ticks int64
	now := l.kernel("clock.Source.NowMs", calls, nil, func() {
		for i := 0; i < calls; i++ {
			ticks += src.NowMs()
		}
	})
	calibSink += uint64(ticks + joined)
	s.add("core.sink_ns_per_match", "ns", k.sink)
	s.add("clock.now_ns", "ns", now)
	return k, sh, nil
}

// predictNs is the documented model (README.md, "The model"): the finish
// time of a job on alg if it were nothing but the replayed kernels at their
// measured rates, its tuple-parallel work split evenly over the threads.
// The shared-table build rate is already a two-writer wall rate.
func predictNs(alg string, k rates, sh shape, floorNs float64) float64 {
	n := sh.nR + sh.nS
	var join float64
	switch alg {
	case "NPJ":
		join = sh.nR*k.sharedT2 + sh.nS*k.probe/threads
	case "PRJ":
		join = (n*k.partition + sh.nR*k.build + sh.nS*k.probe) / threads
	case "SHJ_JM", "SHJ_JB":
		join = n * (k.build + k.probe) / threads
	default: // MWAY, MPASS, PMJ_JM, PMJ_JB
		join = n * (k.sort + k.merge + k.mergeJoin) / threads
	}
	join += sh.matches * k.sink / threads
	stream := sh.stream * (k.decode + k.assign)
	if slices.Contains(columns[eagerLo:eagerHi], alg) {
		// An eager join works while its input arrives; what is left when
		// the replay ends is its finish time.
		join = max(0, join-floorNs)
	}
	return stream + join
}

// drive runs the workload's job on col the way the library's driver does,
// but from here, with a span around every call into a layer, and returns
// the root span's ID and what the library's own clocks said.
func (l *layers) drive(col string) (root int, o outcome, err error) {
	w := l.b.w
	cfg := w.cfg
	cfg.Algorithm = col
	root = l.log.begin(0, "job", col, int64(len(w.r)+len(w.s)))
	defer func() { o.ns = l.log.end(root) }()
	join := func(r, s iawj.Relation) error {
		id := l.log.begin(root, "iawj.Join", col, int64(len(r)+len(s)))
		res, err := iawj.Join(r, s, cfg)
		l.log.end(id)
		o.add(res)
		return err
	}
	if !w.windowed {
		return root, o, join(w.r, w.s)
	}
	var streams [2]iawj.Relation
	for i := range streams {
		id := l.log.begin(root, "ingest.ReadStream", col, int64(len(w.wire[i])/16))
		_, streams[i], err = ingest.ReadStream(bytes.NewReader(w.wire[i]), 0)
		l.log.end(id)
		if err != nil {
			return root, o, err
		}
	}
	id := l.log.begin(root, "window.AssignPair", col, int64(len(streams[0])+len(streams[1])))
	pairs, err := window.AssignPair(streams[0], streams[1], w.spec)
	l.log.end(id)
	if err != nil {
		return root, o, err
	}
	for _, p := range pairs {
		if len(p.R) == 0 || len(p.S) == 0 {
			continue
		}
		cfg.WindowMs = p.Window.Length()
		if err := join(rebased(p.R, p.Window.Start), rebased(p.S, p.Window.Start)); err != nil {
			return root, o, err
		}
	}
	return root, o, nil
}

// childNs sums the durations of root's direct children.
func (l *layers) childNs(root int) (total, joins int64) {
	for _, sp := range l.log.spans[root:] {
		if sp.Parent != root {
			continue
		}
		total += sp.EndNs - sp.StartNs
		if sp.Name == "iawj.Join" {
			joins += sp.EndNs - sp.StartNs
		}
	}
	return total, joins
}

// run is the traced run. After the kernel replays and one latency pass it
// spends what is left of the budget on rounds of two jobs per algorithm:
// the untraced job (phase breakdown, allocation) and the job driven from
// here with spans (what the driver adds to its joins).
func (l *layers) run(budgetNs int64) (int, error) {
	b, s, w := l.b, l.s, l.b.w
	start := proc.ElapsedNs()
	k, sh, err := l.replayKernels()
	if err != nil {
		return 0, err
	}

	// What ADAPTIVE does before it dispatches: summarize a prefix of each
	// stream and walk the decision tree.
	var prof iawj.Advice
	pr, ps := w.r[:min(len(w.r), 4096)], w.s[:min(len(w.s), 4096)]
	profile := l.kernel("iawj.Summarize+Advise", len(pr)+len(ps), nil, func() {
		rs, ss := iawj.Summarize(pr), iawj.Summarize(ps)
		prof = iawj.Advise(iawj.Profile{
			Dupe: min(rs.Dupe, ss.Dupe), KeySkew: max(rs.KeySkew, ss.KeySkew),
			Tuples: len(w.r) + len(w.s), Cores: threads, RateR: iawj.RateInfinite, RateS: iawj.RateInfinite,
		})
	})
	calibSink += uint64(len(prof.Algorithm))
	s.add("advise.profile_us", "us", profile*float64(len(pr)+len(ps))/1e3)

	for _, col := range columns[eagerLo:eagerHi] {
		if lat, ok := b.latencySample(col); ok {
			s.add("lat_p95_ms."+col, "ms", lat.p95)
			s.add("eager.lat_p50_ms."+col, "ms", lat.p50)
			s.add("eager.lat_p99_ms."+col, "ms", lat.p99)
			s.add("eager.half_ms."+col, "ms", lat.half)
		}
	}

	done := 0
	for ; moreRounds(done, 2, proc.ElapsedNs()-start, budgetNs); done++ {
		for _, ci := range rotation(done, len(columns)) {
			col := columns[ci]
			u, alloc, ok := b.sample(col)
			if !ok {
				continue
			}
			s.add("finish_ms."+col, "ms", w.finishMs(u))
			if ci >= nAlgs {
				continue // the dispatcher is measured for its regret only
			}
			for p, name := range phaseNames {
				s.add("core.phase_ms."+name+"."+col, "ms", float64(u.phaseNs[p])/threads/1e6)
			}
			s.add("pool.alloc_mb."+col, "MB", float64(alloc)/1e6)

			var root int
			d, _, ok := b.timed(col, func() (o outcome, err error) {
				root, o, err = l.drive(col)
				return o, err
			})
			if !ok {
				continue
			}
			children, joins := l.childNs(root)
			s.add("driven_children_ms."+col, "ms", (float64(children)-w.floorNs())/1e6)
			s.add("core.run_overhead_us."+col, "us", float64(joins-d.wallNs)/1e3)
		}
	}

	best := s.value("finish_ms." + columns[0])
	for _, alg := range columns[:nAlgs] {
		finish := s.value("finish_ms." + alg)
		best = min(best, finish)
		s.add("model.residual_pct."+alg, "%", 100*(finish-predictNs(alg, k, sh, w.floorNs())/1e6)/finish)
		s.add("stream.driver_self_ms."+alg, "ms", finish-s.value("driven_children_ms."+alg))
	}
	s.add("advise.regret_pct", "%", 100*(s.value("finish_ms."+iawj.AdaptiveName)/best-1))
	return done, nil
}
