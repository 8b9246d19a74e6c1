package lazy

import (
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sortmerge"
	"repro/internal/tuple"
)

// MWay is the Multi-Way Sort Merge Join: inputs are physically partitioned
// and distributed across threads, each local partition is sorted with the
// radix sort, locally sorted runs are combined with a single multi-way
// merge, and matching runs as a single-pass merge join per key range.
type MWay struct{}

// Name implements core.Algorithm.
func (MWay) Name() string { return "MWAY" }

// Run implements core.Algorithm.
func (MWay) Run(ctx *core.ExecContext) error { return runSortJoin(ctx, true) }

// MPass is the Multi-Pass Sort Merge Join: identical to MWay except that
// locally sorted runs are combined by successive two-way merges over
// multiple iterations, which scales better with increasing input sizes
// than a single wide multi-way merge.
type MPass struct{}

// Name implements core.Algorithm.
func (MPass) Name() string { return "MPASS" }

// Run implements core.Algorithm.
func (MPass) Run(ctx *core.ExecContext) error { return runSortJoin(ctx, false) }

// sortRun is the state the sort joins' workers share, kept across calls
// (core.RunState): every worker's sorted chunk copies of R and S, and its
// key range's slices of the runs. Every buffer goes back to the pool when
// the run ends — every worker's merge reads every worker's runs — so what
// a call holds at its peak does not depend on how the workers overlapped.
type sortRun struct {
	runs   [2][]tuple.Relation
	ranges [][]tuple.Relation
}

// size readies the state for a run of threads workers.
func (st *sortRun) size(threads int) {
	for i := range st.runs {
		st.runs[i] = slices.Grow(st.runs[i][:0], threads)[:threads]
	}
	st.ranges = slices.Grow(st.ranges[:0], threads)[:threads]
}

// clear drops the run's references to the buffers.
func (st *sortRun) clear() {
	for i := range st.runs {
		clear(st.runs[i])
	}
	for i := range st.ranges {
		clear(st.ranges[i])
	}
}

// runSortJoin is the shared sort-join skeleton: partition (physical chunk
// copies), sort (per-thread radix sort, or Figure 21's scalar foil), merge
// (multi-way for MWay, successive two-way passes for MPass, parallel
// across key ranges), and a final parallel merge join. Everything that
// scales with the window — the physical chunk copies, the sort scratch,
// the merge outputs (two ping-pong buffers a side for MPass once a range
// spans more than two runs) — comes from the run's pool and goes back when
// the run ends.
func runSortJoin(ctx *core.ExecContext, multiway bool) error {
	st := core.RunState[sortRun](ctx)
	st.size(ctx.Threads)

	ctx.Parallel(func(tid int) {
		tcount, runsR, runsS := ctx.Threads, st.runs[0], st.runs[1]
		tm := ctx.M.T(tid)
		ctx.WaitWindow(tid)

		// Partition: take a physical copy of the equisized chunk so
		// sorting leaves caller data intact (the physical partitioning
		// step of MWay/MPass).
		ctx.Begin(tid, metrics.PhasePartition)
		lo, hi := core.Chunk(len(ctx.R), tcount, tid)
		runsR[tid] = ctx.Tuples(tid, hi-lo)[:hi-lo]
		copy(runsR[tid], ctx.R[lo:hi])
		lo, hi = core.Chunk(len(ctx.S), tcount, tid)
		runsS[tid] = ctx.Tuples(tid, hi-lo)[:hi-lo]
		copy(runsS[tid], ctx.S[lo:hi])
		tm.AddTuples(int64(len(runsR[tid]) + len(runsS[tid])))
		ctx.M.MemAdd(int64(len(runsR[tid])+len(runsS[tid])) * tuple.Bytes)

		// Sort the local runs.
		ctx.Begin(tid, metrics.PhaseBuildSort)
		tm.AddTuples(int64(len(runsR[tid]) + len(runsS[tid])))
		scratch := ctx.Tuples(tid, max(len(runsR[tid]), len(runsS[tid])))
		sortmerge.SortByKeyScratch(runsR[tid], scratch, !ctx.Knobs.ScalarSort, ctx.Tracer, uint64(tid)<<32)
		sortmerge.SortByKeyScratch(runsS[tid], scratch, !ctx.Knobs.ScalarSort, ctx.Tracer, uint64(tid)<<32|1<<31)
		ctx.Begin(tid, metrics.PhaseOther)
		ctx.Barrier()
		// Every worker derives the same splitters from the same sample.
		splitters := computeSplitters(runsR, runsS, tcount, ctx.U32(tid, splitterScratch(tcount)))

		// Merge this thread's key range across all runs.
		ctx.Begin(tid, metrics.PhaseMerge)
		merge := func(runs []tuple.Relation) tuple.Relation {
			ranges := rangeSlices(st.ranges[tid][:0], runs, splitters, tid)
			st.ranges[tid] = ranges
			total := 0
			for _, rg := range ranges {
				total += len(rg)
			}
			dst := ctx.Tuples(tid, total)
			if multiway {
				return sortmerge.MultiwayMergeInto(dst, ranges)
			}
			var other tuple.Relation
			if len(ranges) > 2 {
				other = ctx.Tuples(tid, total) // a second pass needs the other buffer
			}
			return sortmerge.TwoWayMergePassesInto(dst, other, ranges)
		}
		mergedR := merge(runsR)
		mergedS := merge(runsS)
		tm.AddTuples(int64(len(mergedR) + len(mergedS)))
		ctx.M.MemAdd(int64(len(mergedR)+len(mergedS)) * tuple.Bytes)

		// Match the aligned key range with a single-pass merge join.
		ctx.Begin(tid, metrics.PhaseProbe)
		tm.AddTuples(int64(len(mergedR) + len(mergedS)))
		k := core.NewSink(ctx, tid)
		sortmerge.MergeJoinRuns(mergedR, mergedS, k.Rect, ctx.Tracer, uint64(tid)<<33, uint64(tid)<<33|1<<32)
		k.Close()
		ctx.EndPhase(tid)
	})
	st.clear()
	ctx.M.MemSampleNow(ctx.NowMs())
	return nil
}

// samplesPerRun bounds the keys computeSplitters samples from one run.
const samplesPerRun = 64

// splitterScratch is the scratch computeSplitters needs for tcount
// workers: room for samplesPerRun keys of each of the 2·tcount runs, and
// the tcount-1 splitters.
func splitterScratch(tcount int) int { return 2*tcount*samplesPerRun + tcount - 1 }

// computeSplitters samples the sorted runs and returns tcount-1 key-rank
// splitters defining the per-thread key ranges. Every thread derives the
// same splitters deterministically. It works in scratch, whose capacity
// is at least splitterScratch(tcount), and returns a slice of it.
func computeSplitters(runsR, runsS []tuple.Relation, tcount int, scratch []uint32) []uint32 {
	splitters := scratch[:tcount-1]
	sample := scratch[tcount-1 : tcount-1]
	collect := func(runs []tuple.Relation) {
		for _, run := range runs {
			if len(run) == 0 {
				continue
			}
			step := len(run)/samplesPerRun + 1
			for i := 0; i < len(run); i += step {
				sample = append(sample, sortmerge.KeyRank(run[i].Key))
			}
		}
	}
	collect(runsR)
	collect(runsS)
	slices.Sort(sample)
	for i := 1; i < tcount; i++ {
		if len(sample) == 0 {
			splitters[i-1] = ^uint32(0)
			continue
		}
		splitters[i-1] = sample[i*len(sample)/tcount]
	}
	return splitters
}

// rangeSlices appends to out, from every sorted run, the slice belonging
// to thread tid's key range [splitters[tid-1], splitters[tid]).
func rangeSlices(out, runs []tuple.Relation, splitters []uint32, tid int) []tuple.Relation {
	for _, run := range runs {
		lo := 0
		if tid > 0 {
			lo = lowerBound(run, splitters[tid-1])
		}
		hi := len(run)
		if tid < len(splitters) {
			hi = lowerBound(run, splitters[tid])
		}
		if lo < hi {
			out = append(out, run[lo:hi])
		}
	}
	return out
}

// lowerBound returns the first index whose key rank is >= rank.
func lowerBound(run tuple.Relation, rank uint32) int {
	return sort.Search(len(run), func(i int) bool {
		return sortmerge.KeyRank(run[i].Key) >= rank
	})
}
