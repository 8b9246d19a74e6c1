package hashtable

// Software-prefetched probing.
//
// A probe over an out-of-cache table is latency-bound, not bandwidth-bound:
// each probe's directory access is an independent random read, but the
// scalar loop serializes them — hash, load the bucket line (stall), walk,
// repeat. The batched probe kernels instead run a two-stage pipeline per
// block of D probes: stage one hashes every key in the block and issues an
// early load of its bucket head (the head count and the overflow pointer —
// both lines of the 80-byte bucket), stage two resolves the matches. By the
// time stage two reaches probe j, its bucket line has been in flight for up
// to D-1 independent loads, so the misses overlap instead of queuing —
// software prefetching by memory-level parallelism, the Go analogue of the
// PREFETCHT0 batching in Balkesen et al.'s radix-join code and the
// index-probe batching of Shahvarani & Jacobsen.
//
// D is the prefetch distance. It trades pipelining against L1 pressure
// (the staged block must stay resident between the stages) and is
// hardware-dependent, so the window-state pool calibrates it once per
// process at construction (pool.New -> CalibrateProbePrefetch) by timing a
// synthetic out-of-cache probe at each candidate distance and moving off
// the default only for a clear win (pickPrefetch). Tables snapshot
// the package default at construction. The differential and fuzz tests
// sweep the distance — every one must produce identical hits in identical
// order.

import (
	"math/rand/v2"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/tuple"
)

// prefBlockMax bounds the prefetch distance: the stage-one scratch
// (bucket pointer, head count, overflow pointer per probe) lives in
// fixed-size stack arrays of this length.
const prefBlockMax = 64

// prefBlockMask masks a block-local index into the stage scratch:
// j & prefBlockMask == j for every j < prefBlockMax, and the masked
// form is bounds-check free by construction (LINTING.md §BCE).
const prefBlockMask = prefBlockMax - 1

// defaultProbePrefetch is the distance used before any calibration ran.
// 16 in-flight lines sits comfortably inside the ~10-16 miss-status
// registers of recent x86 cores.
const defaultProbePrefetch = 16

// probePrefetch is the process-wide default distance, snapshotted by New.
var probePrefetch atomic.Int32

func init() { probePrefetch.Store(defaultProbePrefetch) }

// SetProbePrefetchDistance sets the process-wide default, clamped to
// [1, prefBlockMax]. 1 disables pipelining (plain per-probe walk).
func SetProbePrefetchDistance(d int) { probePrefetch.Store(int32(clampPref(d))) }

// ProbePrefetchDistance reads the process-wide default: the compiled-in
// one until a pool calibrated it or SetProbePrefetchDistance set it. The
// journal header records it (trace.EnvInfo), so two runs that drew
// different distances can be told apart.
func ProbePrefetchDistance() int { return int(probePrefetch.Load()) }

// clampPref returns d clamped to [1, prefBlockMax].
func clampPref(d int) int { return max(1, min(d, prefBlockMax)) }

// prefCandidates are the distances the calibration sweep times. 1 is the
// unpipelined control; the rest bracket the MSHR capacity of current
// hardware.
var prefCandidates = [...]int{1, 8, 16, 32, 64}

// calibrationReps is how many timed rounds the sweep makes over the
// candidates; each candidate keeps its fastest.
const calibrationReps = 5

// calibrationSink keeps the timed probes' results observable so the
// calibration loops are never dead code.
var calibrationSink atomic.Int64

// CalibrateProbePrefetch times ProbeRuns — what the joins run — over a
// synthetic out-of-L2 table at every candidate distance and returns the
// distance pickPrefetch chooses from the timings. The pool runs it once
// per process at construction; building the table and sweeping it take a
// few milliseconds. The choice only affects speed, never results: every
// distance produces identical hits in identical order.
func CalibrateProbePrefetch() int {
	// A table past L2: 32k tuples -> 16384 buckets * 80 B = 1.3 MiB
	// directory, with dup ~4 so the resolve reads slots and runs alike.
	const buildN, probeN, domain = 32_768, 4_096, 8_192
	rng := rand.New(rand.NewPCG(0x9e3779b9, 0x85ebca87))
	build := make([]tuple.Tuple, buildN)
	for i := range build {
		build[i] = tuple.Tuple{Key: rng.Int32N(domain), Payload: int32(i)}
	}
	probes := make([]tuple.Tuple, probeN)
	for i := range probes {
		probes[i] = tuple.Tuple{Key: rng.Int32N(domain), Payload: int32(i)}
	}
	tab := New(buildN)
	tab.InsertBatch(build)
	hits := make([]Hit, 0, probeN) // one hit buffer for the whole sweep

	// Rounds over all candidates rather than all reps of one candidate: a
	// burst of host noise then slows one round of every candidate, not
	// every rep of one. Round 0 warms the hierarchy and is not timed; the
	// minimum over the rest stands, since noise only ever adds time.
	sink := 0
	sweep := func() (timings [len(prefCandidates)]int64) {
		for rep := 0; rep <= calibrationReps; rep++ {
			for i, cand := range prefCandidates {
				tab.pref = int32(cand)
				sw := clock.StartStopwatch()
				hits = tab.ProbeRuns(probes, nil, hits[:0])
				if e := sw.ElapsedNs(); rep == 1 || (rep > 1 && e < timings[i]) {
					timings[i] = e
				}
				sink += len(hits)
			}
		}
		return timings
	}
	// Leaving the default takes two sweeps that agree: on a shared host
	// one sweep's minima still move by several percent between calls.
	pick := pickPrefetch(sweep())
	if pick != defaultProbePrefetch && pickPrefetch(sweep()) != pick {
		pick = defaultProbePrefetch
	}
	calibrationSink.Store(int64(sink))
	return pick
}

// pickPrefetch chooses the distance from each candidate's best time
// (timings[i] belongs to prefCandidates[i]). Candidates within a few
// percent of each other used to make the choice a coin toss between
// processes, and a process that drew 1 ran every hash kernel unpipelined;
// so the compiled-in default stands unless another pipelined distance is
// at least 10% faster than it (the fastest such wins), and 1 — no
// pipelining — is chosen only if it beats every pipelined candidate by
// that margin. A timing that is not positive measured nothing: the default
// stands.
func pickPrefetch(timings [len(prefCandidates)]int64) int {
	const num, den = 9, 10 // "at least 10% faster": t*den <= other*num
	best, bestNs := defaultProbePrefetch, int64(-1)
	var defaultNs, unpipelinedNs int64
	for i, cand := range prefCandidates {
		if timings[i] <= 0 {
			return defaultProbePrefetch
		}
		switch cand {
		case 1:
			unpipelinedNs = timings[i]
			continue
		case defaultProbePrefetch:
			defaultNs = timings[i]
		}
		if bestNs < 0 || timings[i] < bestNs {
			best, bestNs = cand, timings[i]
		}
	}
	if unpipelinedNs*den <= bestNs*num {
		return 1
	}
	if bestNs*den <= defaultNs*num {
		return best
	}
	return defaultProbePrefetch
}
