package workloadspec

import (
	"fmt"
	"path/filepath"
	"sort"

	"repro/internal/gen"
	"repro/internal/trace"
	"repro/internal/tuple"
	"repro/internal/zipf"
)

// Options parameterizes compilation.
type Options struct {
	// BaseDir resolves relative trace-journal paths (usually the spec
	// file's directory); empty means the working directory.
	BaseDir string
	// Journals supplies pre-parsed journals keyed by the exact
	// ArrivalSpec.Journal string, bypassing the filesystem; tests and
	// in-process callers use it.
	Journals map[string]trace.Journal
}

// Compile lowers the spec to its workload, in the gen.Workload shape every
// join driver consumes. The same spec and seed always yield the same
// tuples — compilation draws every random value from sub-seeds mixed out
// of Spec.Seed and the client's position.
func Compile(sp *Spec, opt Options) (gen.Workload, error) {
	if err := sp.Validate(); err != nil {
		return gen.Workload{}, err
	}
	if sp.Preset != nil {
		return compilePreset(sp)
	}
	profiles, err := resolveProfiles(sp, opt)
	if err != nil {
		return gen.Workload{}, err
	}
	return gen.Workload{
		Name:     sp.Name,
		R:        compileStream(sp, 'R', sp.RateR, profiles),
		S:        compileStream(sp, 'S', sp.RateS, profiles),
		WindowMs: sp.WindowMs,
	}, nil
}

// compilePreset routes the spec through the paper-workload generator, so
// a preset spec is byte-identical to its gen.* counterpart at the same
// seed and scale (the digest-equality contract the tests pin).
func compilePreset(sp *Spec) (gen.Workload, error) {
	w, err := gen.ByName(sp.Preset.Name, gen.Scale(sp.Preset.Scale), sp.Seed)
	if err != nil {
		return gen.Workload{}, fmt.Errorf("workloadspec: preset: %w", err)
	}
	if sp.WindowMs > 0 {
		w.WindowMs = sp.WindowMs
	}
	return w, nil
}

// resolveProfiles loads every trace-replay client's journal profile once.
func resolveProfiles(sp *Spec, opt Options) (map[string]*TraceProfile, error) {
	var out map[string]*TraceProfile
	for i := range sp.Clients {
		a := &sp.Clients[i].Arrival
		if a.Process != ProcTrace {
			continue
		}
		if out == nil {
			out = map[string]*TraceProfile{}
		}
		if _, ok := out[a.Journal]; ok {
			continue
		}
		if j, ok := opt.Journals[a.Journal]; ok {
			p, err := ProfileOfJournal(j)
			if err != nil {
				return nil, fmt.Errorf("client %q: %w", sp.Clients[i].ID, err)
			}
			out[a.Journal] = p
			continue
		}
		path := a.Journal
		if !filepath.IsAbs(path) && opt.BaseDir != "" {
			path = filepath.Join(opt.BaseDir, path)
		}
		p, err := profileFromFile(path)
		if err != nil {
			return nil, fmt.Errorf("client %q: %w", sp.Clients[i].ID, err)
		}
		out[a.Journal] = p
	}
	return out, nil
}

// pendingTuple carries one client arrival until the streams are merged.
type pendingTuple struct {
	ts         int64
	key        int32
	payload    int32
	hasPayload bool
}

// compileStream generates every contributing client's schedule for one
// stream and merges them by arrival time. The merge is stable over the
// client order, so ties at the same millisecond resolve deterministically.
func compileStream(sp *Spec, stream byte, rate float64, profiles map[string]*TraceProfile) tuple.Relation {
	duration := float64(sp.duration())
	var all []pendingTuple
	for ci := range sp.Clients {
		cl := &sp.Clients[ci]
		if !feedsStream(cl.Stream, stream) || rate <= 0 {
			continue
		}
		base := zipf.Mix64(sp.Seed^zipf.Mix64(uint64(ci)+1)) ^ uint64(stream)
		times := arrivalTimes(cl.Arrival, cl.RateFraction*rate, duration, zipf.Mix64(base^0xa111), profiles[cl.Arrival.Journal])
		if len(times) == 0 {
			continue
		}
		keys := newKeyDrawer(cl.Keys, zipf.Mix64(base^0xbee5))
		payloads := newPayloadDrawer(cl.Payload, zipf.Mix64(base^0xca44))
		for _, t := range times {
			p := pendingTuple{ts: int64(t), key: keys()}
			if payloads != nil {
				p.payload = payloads()
				p.hasPayload = true
			}
			all = append(all, p)
		}
	}
	sort.SliceStable(all, func(i, k int) bool { return all[i].ts < all[k].ts })
	rel := make(tuple.Relation, len(all))
	for i, p := range all {
		rel[i] = tuple.Tuple{TS: p.ts, Key: p.key, Payload: p.payload}
		if !p.hasPayload {
			// Stream-wide sequence, the gen.* payload convention.
			rel[i].Payload = int32(i)
		}
	}
	return rel
}

// feedsStream reports whether a client with the given stream selector
// contributes to stream ('R' or 'S').
func feedsStream(sel string, stream byte) bool {
	switch sel {
	case "", "both":
		return true
	case "R":
		return stream == 'R'
	case "S":
		return stream == 'S'
	}
	return false
}
