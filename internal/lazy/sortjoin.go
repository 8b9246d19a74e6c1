package lazy

import (
	"slices"
	"sort"
	"sync"

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

// runSortJoin is the shared sort-join skeleton: partition (physical chunk
// copies), sort (per-thread radix sort, or Figure 21's scalar foil), merge
// (multi-way for MWay, successive two-way passes for MPass, parallel
// across key ranges), and a final parallel merge join. Everything that
// scales with the window — the physical chunk copies, the sort scratch,
// the merge outputs (two ping-pong buffers a side for MPass once a range
// spans more than two runs) — comes from the window pool when one is
// attached and is recycled once all workers finish.
func runSortJoin(ctx *core.ExecContext, multiway bool) error {
	tcount := ctx.Threads
	runsR := make([]tuple.Relation, tcount)
	runsS := make([]tuple.Relation, tcount)
	// mergeBufs holds four merge buffers per worker: the ping-pong pair
	// of R, then of S (MWay, and MPass up to two runs, use one of a pair).
	mergeBufs := make([][]tuple.Tuple, 4*tcount)
	var splitters []uint32
	var splitOnce sync.Once

	var barrier sync.WaitGroup
	barrier.Add(tcount)

	core.Parallel(tcount, func(tid int) {
		tm := ctx.M.T(tid)
		ctx.WaitWindow(tid)

		// Partition: take a physical copy of the equisized chunk so
		// sorting leaves caller data intact (the physical partitioning
		// step of MWay/MPass).
		ctx.Begin(tid, metrics.PhasePartition)
		lo, hi := core.Chunk(len(ctx.R), tcount, tid)
		runsR[tid] = ctx.Pool.Tuples(hi - lo)[:hi-lo]
		copy(runsR[tid], ctx.R[lo:hi])
		lo, hi = core.Chunk(len(ctx.S), tcount, tid)
		runsS[tid] = ctx.Pool.Tuples(hi - lo)[:hi-lo]
		copy(runsS[tid], ctx.S[lo:hi])
		tm.AddTuples(int64(len(runsR[tid]) + len(runsS[tid])))
		ctx.M.MemAdd(int64(len(runsR[tid])+len(runsS[tid])) * 16)

		// Sort the local runs.
		ctx.Begin(tid, metrics.PhaseBuildSort)
		tm.AddTuples(int64(len(runsR[tid]) + len(runsS[tid])))
		scratch := ctx.Pool.Tuples(max(len(runsR[tid]), len(runsS[tid])))
		sortmerge.SortByKeyScratch(runsR[tid], scratch, !ctx.Knobs.ScalarSort, ctx.Tracer, uint64(tid)<<32)
		sortmerge.SortByKeyScratch(runsS[tid], scratch, !ctx.Knobs.ScalarSort, ctx.Tracer, uint64(tid)<<32|1<<31)
		ctx.Pool.PutTuples(scratch)
		ctx.Begin(tid, metrics.PhaseOther)
		barrier.Done()
		barrier.Wait()
		splitOnce.Do(func() {
			sample := ctx.Pool.U32(2 * tcount * samplesPerRun)
			splitters = computeSplitters(runsR, runsS, tcount, sample)
			ctx.Pool.PutU32(sample)
		})

		// Merge this thread's key range across all runs.
		ctx.Begin(tid, metrics.PhaseMerge)
		merge := func(ranges []tuple.Relation, buf [][]tuple.Tuple) tuple.Relation {
			total := 0
			for _, rg := range ranges {
				total += len(rg)
			}
			buf[0] = ctx.Pool.Tuples(total)
			if multiway {
				return sortmerge.MultiwayMergeInto(buf[0], ranges)
			}
			if len(ranges) > 2 {
				buf[1] = ctx.Pool.Tuples(total) // a second pass needs the other buffer
			}
			return sortmerge.TwoWayMergePassesInto(buf[0], buf[1], ranges)
		}
		mergedR := merge(rangeSlices(runsR, splitters, tid), mergeBufs[4*tid:4*tid+2])
		mergedS := merge(rangeSlices(runsS, splitters, tid), mergeBufs[4*tid+2:4*tid+4])
		tm.AddTuples(int64(len(mergedR) + len(mergedS)))
		ctx.M.MemAdd(int64(len(mergedR)+len(mergedS)) * 16)

		// Match the aligned key range with a single-pass merge join.
		ctx.Begin(tid, metrics.PhaseProbe)
		tm.AddTuples(int64(len(mergedR) + len(mergedS)))
		k := core.NewSink(ctx, tid)
		sortmerge.MergeJoinRuns(mergedR, mergedS, k.Rect, ctx.Tracer, uint64(tid)<<33, uint64(tid)<<33|1<<32)
		k.Close()
		ctx.EndPhase(tid)
	})
	// Every worker's merge read every worker's runs, so all buffers are
	// recycled only after the last worker has finished.
	for tid := 0; tid < tcount; tid++ {
		ctx.Pool.PutTuples(runsR[tid])
		ctx.Pool.PutTuples(runsS[tid])
	}
	for _, buf := range mergeBufs {
		ctx.Pool.PutTuples(buf)
	}
	ctx.M.MemSampleNow(ctx.NowMs())
	return nil
}

// samplesPerRun bounds the keys computeSplitters samples from one run.
const samplesPerRun = 64

// computeSplitters samples the sorted runs and returns tcount-1 key-rank
// splitters defining the per-thread key ranges. Every thread derives the
// same splitters deterministically. The samples are appended to sample[:0]:
// with room for samplesPerRun per run it does not grow.
func computeSplitters(runsR, runsS []tuple.Relation, tcount int, sample []uint32) []uint32 {
	sample = sample[:0]
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
	splitters := make([]uint32, tcount-1)
	for i := 1; i < tcount; i++ {
		if len(sample) == 0 {
			splitters[i-1] = ^uint32(0)
			continue
		}
		splitters[i-1] = sample[i*len(sample)/tcount]
	}
	return splitters
}

// rangeSlices extracts from every sorted run the slice belonging to thread
// tid's key range [splitters[tid-1], splitters[tid]).
func rangeSlices(runs []tuple.Relation, splitters []uint32, tid int) []tuple.Relation {
	out := make([]tuple.Relation, 0, len(runs))
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
