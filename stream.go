package iawj

// This file is the inter-window driver built on IaWJ as the building
// block — the direction the paper explicitly points at ("designing
// efficient inter-window join algorithms by taking IaWJ as a building
// block is an exciting topic"). The driver slices two unbounded streams
// into aligned windows (tumbling, sliding, or session) and runs the
// configured intra-window join per window pair.

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/window"
)

// WindowKind enumerates the window types of Definition 1.
type WindowKind = window.Kind

// The supported window kinds.
const (
	Tumbling = window.Tumbling
	Sliding  = window.Sliding
	Session  = window.Session
)

// WindowSpec describes how streams are sliced into windows.
type WindowSpec = window.Spec

// WindowResult is the outcome of one window's intra-window join.
type WindowResult struct {
	Start, End int64
	Result     Result
}

// JoinWindowed slices r and s with the spec, aligns the windows of both
// streams, and runs the configured IaWJ per window pair. Windows with
// input on only one side produce zero matches without running a join.
//
// No window is copied: each join reads its slices of r and s in place
// (a tuple of a sliding stream is shared by every window covering it) and
// is told the window start, which it subtracts wherever it reads a
// timestamp. Arrival simulation, latencies and the timestamps of emitted
// results are therefore relative to the window start — each join replays
// its window in isolation — and r and s are never written.
//
// Successive windows are exactly the state-reuse pattern the window pool
// exists for, so when cfg.Pool is nil the driver creates one shared by
// all windows of this call; pass your own pool to share state across
// calls too.
//
// When cfg.Journal is non-nil, every window that runs a join appends one
// iawj-journal/v2 window record (windows with input on only one side are
// skipped — they have no run to summarize).
//
// cfg.Emit receives every window's results through one outbox, so it is
// never entered concurrently by this call, and a window's results have
// all been delivered when its journal record is written.
func JoinWindowed(r, s Relation, spec WindowSpec, cfg Config) ([]WindowResult, error) {
	return JoinWindowedParallel(r, s, spec, cfg, 1)
}

// joinWindow runs window i's join over the pair's slices in place,
// delivering through outbox, stores the result, stamped with the window's
// identity, in out and appends the window's journal record.
func joinWindow(i int, p window.Pair, cfg Config, outbox *core.Outbox, out *WindowResult) error {
	cfg.WindowMs = p.Window.Length()
	res, err := join(p.R, p.S, cfg, p.Window.Start, outbox)
	if err != nil {
		return fmt.Errorf("window [%d,%d): %w", p.Window.Start, p.Window.End, err)
	}
	res.WindowID, res.WindowStartMs, res.WindowEndMs = i, p.Window.Start, p.Window.End
	out.Result = res
	if err := cfg.Journal.WriteWindow(res, i, p.Window.Start, p.Window.End); err != nil {
		return fmt.Errorf("window [%d,%d): journal: %w", p.Window.Start, p.Window.End, err)
	}
	return nil
}

// JoinWindowedParallel is JoinWindowed with up to workers window pairs
// in flight concurrently — the replay pattern for recorded (at rest)
// streams where window order does not gate arrival. Each window's join
// still uses cfg.Threads workers internally, so the effective parallelism
// is workers × cfg.Threads; choose the split to fit the machine. The
// windows in flight share one pool and one outbox: cfg.Emit is still
// never entered concurrently, and sees their results interleaved batch by
// batch.
//
// With workers <= 1 every window runs inline on the caller's goroutine,
// in order, and the first failing window ends the call with the results
// up to and including it. With more, every window is attempted and the
// error of the lowest-numbered failing one is returned with all results.
func JoinWindowedParallel(r, s Relation, spec WindowSpec, cfg Config, workers int) ([]WindowResult, error) {
	pairs, err := window.AssignPair(r, s, spec)
	if err != nil {
		return nil, err
	}
	if cfg.Pool == nil {
		// The pool is concurrency-safe and a window's released state
		// seeds the next.
		cfg.Pool = NewStatePool()
	}
	outbox := core.NewOutbox(cfg.Emit, cfg.Pool) // nil when only counting
	defer outbox.Close()
	out := make([]WindowResult, len(pairs))
	var (
		errs []error
		sem  chan struct{}
		wg   sync.WaitGroup
	)
	if workers > 1 {
		errs = make([]error, len(pairs))
		sem = make(chan struct{}, workers)
	}
	for i, p := range pairs {
		out[i] = WindowResult{Start: p.Window.Start, End: p.Window.End}
		if len(p.R) == 0 || len(p.S) == 0 {
			continue
		}
		if workers <= 1 {
			if err := joinWindow(i, p, cfg, outbox, &out[i]); err != nil {
				return out[:i+1], err
			}
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, p window.Pair, cfg Config) {
			defer func() { <-sem; wg.Done() }()
			// The journal writer serializes internally; window records of
			// in-flight windows may interleave out of order but carry ids.
			errs[i] = joinWindow(i, p, cfg, outbox, &out[i])
		}(i, p, cfg)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// TotalMatches sums the matches over a windowed join's results.
func TotalMatches(results []WindowResult) int64 {
	var n int64
	for _, r := range results {
		n += r.Result.Matches
	}
	return n
}
