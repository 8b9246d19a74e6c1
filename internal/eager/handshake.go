package eager

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/tuple"
)

// Handshake is the handshake-join baseline from the related-work
// validation (Section 6): a bidirectional dataflow pipeline where R tuples
// flow left-to-right and S tuples right-to-left through a chain of join
// cores, each maintaining local stores that must be updated continuously.
// The paper implemented it to validate that inter-window designs carry
// state-maintenance overhead that costs orders of magnitude of throughput
// on intra-window workloads; this reproduction exists for the same
// comparison and is not part of the eight studied algorithms.
type Handshake struct{}

// Name implements core.Algorithm.
func (Handshake) Name() string { return "HANDSHAKE" }

// hsMsg is one tuple traveling through the pipeline.
type hsMsg struct {
	t     tuple.Tuple
	fromR bool
	// store designates the cell that keeps the tuple after traversal.
	store int
	// reply signals the driver that the traversal finished.
	reply chan struct{}
}

// Run implements core.Algorithm. Tuples are injected in global arrival
// order; every tuple traverses the full chain of cells (channel hop per
// cell — the communication cost inherent to the dataflow design), probes
// each cell's opposite-stream store on the way, and is retained by its
// designated cell. Because injection is sequential, each pair is found
// exactly once: by the later-arriving tuple.
func (Handshake) Run(ctx *core.ExecContext) error {
	cells := ctx.Threads
	chans := make([]chan hsMsg, cells)
	for i := range chans {
		chans[i] = make(chan hsMsg)
	}
	done := make(chan struct{})

	for c := 0; c < cells; c++ {
		go func(cell int) {
			sink := core.NewSink(ctx, cell)
			var rStore, sStore []tuple.Tuple
			for msg := range chans[cell] {
				ctx.Begin(cell, metrics.PhaseProbe)
				if msg.fromR {
					for _, s := range sStore {
						if s.Key == msg.t.Key {
							sink.Match(msg.t, s)
						}
					}
				} else {
					for _, r := range rStore {
						if r.Key == msg.t.Key {
							sink.Match(r, msg.t)
						}
					}
				}
				ctx.Begin(cell, metrics.PhaseBuildSort)
				if msg.store == cell {
					if msg.fromR {
						rStore = append(rStore, msg.t)
					} else {
						sStore = append(sStore, msg.t)
					}
					ctx.M.MemAdd(tuple.Bytes)
				}
				ctx.Begin(cell, metrics.PhaseOther)
				// Forward along the flow direction; R flows to higher
				// cells, S to lower.
				next := cell + 1
				if !msg.fromR {
					next = cell - 1
				}
				if next < 0 || next >= cells {
					msg.reply <- struct{}{}
					continue
				}
				chans[next] <- msg
			}
			sink.Close()
			ctx.EndPhase(cell)
			done <- struct{}{}
		}(c)
	}

	// Driver: inject tuples strictly in arrival order, honoring the
	// simulated arrival gating.
	reply := make(chan struct{})
	ri, si := 0, 0
	seq := 0
	for ri < len(ctx.R) || si < len(ctx.S) {
		var msg hsMsg
		takeR := si >= len(ctx.S) || (ri < len(ctx.R) && ctx.R[ri].TS <= ctx.S[si].TS)
		if takeR {
			msg = hsMsg{t: ctx.R[ri], fromR: true, store: seq % cells, reply: reply}
			ri++
		} else {
			msg = hsMsg{t: ctx.S[si], fromR: false, store: seq % cells, reply: reply}
			si++
		}
		seq++
		for !ctx.Avail(msg.t.TS) {
			ctx.Sleep(0, stall) // no cell sleeps, so timer 0 is the driver's
		}
		entry := 0
		if !msg.fromR {
			entry = cells - 1
		}
		chans[entry] <- msg
		<-reply
	}
	for _, ch := range chans {
		close(ch)
	}
	for c := 0; c < cells; c++ {
		<-done
	}
	ctx.M.MemSampleNow(ctx.NowMs())
	return nil
}
