// Package workloadspec is the workload-description layer: a JSON spec
// names N heterogeneous clients — each with a rate fraction, an arrival
// process, a key-domain distribution, and payload sizing — and a
// deterministic compiler lowers the spec to per-client arrival schedules
// merged into the gen.Workload shape every join driver already consumes.
// A spec is one input of cmd/iawjjoin (-spec), beside CSV files, the named
// workloads and TCP streams.
//
// The client-decomposition design follows ServeGen (heterogeneous clients
// with skewed rates and bursty arrival processes) adapted to stream joins:
// clients contribute to the R stream, the S stream, or both, and the total
// offered rate of a stream is split by the clients' rate fractions. A spec
// can instead name one of the paper's four real-world workloads (Stock,
// Rovio, YSB, DEBS) as a preset, in which case compilation routes through
// the exact gen.* generator — same seed, byte-identical tuples — so a
// spec and the named workload drive one generator.
//
// Everything is deterministic: the same spec (same seed) always compiles
// to the same tuples, which is what lets the conformance oracle and the
// statistical generator tests pin every arrival process. See WORKLOADS.md.
package workloadspec

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// SpecVersion is the current spec format version.
const SpecVersion = 1

// Spec describes one workload: either a list of heterogeneous clients
// splitting a target arrival rate, or a preset naming a paper workload.
type Spec struct {
	// Version is the spec format version (SpecVersion).
	Version int `json:"version"`
	// Name labels the compiled workload.
	Name string `json:"name"`
	// Seed makes compilation deterministic; every client derives its own
	// sub-seeds from it.
	Seed uint64 `json:"seed"`

	// WindowMs is the join window length in simulated milliseconds.
	WindowMs int64 `json:"window_ms,omitempty"`
	// DurationMs is the total span arrivals cover; the join driver slices
	// it into windows of WindowMs. Zero defaults to one window.
	DurationMs int64 `json:"duration_ms,omitempty"`

	// RateR and RateS are the target aggregate arrival rates of the two
	// streams in tuples per simulated millisecond, split across the
	// clients by their rate fractions.
	RateR float64 `json:"rate_r,omitempty"`
	RateS float64 `json:"rate_s,omitempty"`

	// Clients are the traffic sources; their rate fractions must sum to 1.
	Clients []Client `json:"clients,omitempty"`

	// Preset, when set, replaces the client list: the spec compiles to
	// the named paper workload via its gen.* generator at Seed.
	Preset *Preset `json:"preset,omitempty"`
}

// Preset routes a spec through one of the paper's real-world generators.
type Preset struct {
	// Name is a gen.ByName workload: Stock, Rovio, YSB, or DEBS.
	Name string `json:"name"`
	// Scale shrinks the paper magnitudes (gen.Scale); 1 approximates the
	// published sizes.
	Scale float64 `json:"scale"`
}

// Client is one traffic source of a multi-client spec.
type Client struct {
	// ID names the client in reports and errors.
	ID string `json:"id"`
	// Stream says which join input the client feeds: "R", "S", or "both"
	// (the default).
	Stream string `json:"stream,omitempty"`
	// RateFraction is this client's share of the stream's target rate;
	// all clients' fractions must sum to 1.
	RateFraction float64 `json:"rate_fraction"`
	// Arrival selects the inter-arrival process.
	Arrival ArrivalSpec `json:"arrival"`
	// Keys selects the join-key distribution.
	Keys KeySpec `json:"keys"`
	// Payload selects how tuple payload values are drawn; nil assigns a
	// stream-wide sequence (the gen.* convention).
	Payload *PayloadSpec `json:"payload,omitempty"`
}

// Arrival process names.
const (
	// ProcConstant spaces arrivals exactly 1/rate apart.
	ProcConstant = "constant"
	// ProcPoisson draws exponential inter-arrivals (memoryless).
	ProcPoisson = "poisson"
	// ProcGamma draws gamma inter-arrivals; CV > 1 is bursty, CV < 1 is
	// more regular than Poisson.
	ProcGamma = "gamma"
	// ProcMMPP is a two-state on/off Markov-modulated Poisson process:
	// exponential on/off sojourns, Poisson arrivals while on, silence
	// while off. The on-rate is scaled so the long-run rate matches the
	// client's share.
	ProcMMPP = "mmpp"
	// ProcTrace replays the arrival-rate profile recorded in an
	// iawj-journal/v2 journal's window records (see replay.go).
	ProcTrace = "trace"
)

// ArrivalSpec parameterizes a client's arrival process.
type ArrivalSpec struct {
	// Process is one of the Proc* names.
	Process string `json:"process"`
	// CV is the gamma coefficient of variation (default 2: bursty).
	CV float64 `json:"cv,omitempty"`
	// OnMs and OffMs are the MMPP mean sojourn times (default 100 each).
	OnMs  float64 `json:"on_ms,omitempty"`
	OffMs float64 `json:"off_ms,omitempty"`
	// Journal is the trace-replay source: a path to an iawj-journal
	// JSONL file with window records, resolved against Options.BaseDir.
	Journal string `json:"journal,omitempty"`
}

// Key distribution names.
const (
	// KeysUniform draws keys uniformly over the domain.
	KeysUniform = "uniform"
	// KeysZipf draws keys Zipf(theta)-skewed over the domain, with the
	// rank-to-key mapping scrambled (the gen.* convention, so hot keys
	// do not cluster at 0 and skew radix partitioning artificially).
	KeysZipf = "zipf"
	// KeysHotset sends HotFrac of the traffic to HotKeys hot keys and
	// spreads the rest uniformly over the remaining domain.
	KeysHotset = "hotset"
)

// KeySpec parameterizes a client's join-key distribution.
type KeySpec struct {
	// Dist is one of the Keys* names.
	Dist string `json:"dist"`
	// Domain is the key-domain size (keys are drawn from [0, Domain)).
	Domain int `json:"domain"`
	// Theta is the Zipf exponent (zipf only).
	Theta float64 `json:"theta,omitempty"`
	// HotKeys and HotFrac parameterize hotset: HotKeys hot keys receive
	// HotFrac of the draws (defaults 8 and 0.9).
	HotKeys int     `json:"hot_keys,omitempty"`
	HotFrac float64 `json:"hot_frac,omitempty"`
}

// Payload kinds.
const (
	// PayloadSeq assigns the tuple's final stream position (the gen.*
	// convention; also the default when Payload is omitted).
	PayloadSeq = "seq"
	// PayloadUniform draws values uniformly from [Min, Max].
	PayloadUniform = "uniform"
)

// PayloadSpec selects tuple payload values. Tuples are fixed-width 16-byte
// records (internal/tuple), so "payload sizing" selects the 32-bit value
// distribution, not a byte length; WORKLOADS.md documents the mapping.
type PayloadSpec struct {
	Kind string `json:"kind"`
	Min  int32  `json:"min,omitempty"`
	Max  int32  `json:"max,omitempty"`
}

// Parse decodes and validates a JSON spec. Unknown fields are rejected so
// a typo'd knob fails loudly instead of silently compiling defaults.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("workloadspec: parse: %w", err)
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// Marshal encodes the spec as stable, indented JSON. Parse(Marshal(s))
// compiles byte-identically to s (the round-trip property the test suite
// pins).
func (sp *Spec) Marshal() ([]byte, error) {
	return json.MarshalIndent(sp, "", "  ")
}

// fracTolerance bounds how far the client rate fractions may sum from 1.
const fracTolerance = 1e-6

// Validate checks structural invariants; compile errors beyond these are
// reported by Compile.
func (sp *Spec) Validate() error {
	if sp.Version != SpecVersion {
		return fmt.Errorf("workloadspec: unsupported version %d (want %d)", sp.Version, SpecVersion)
	}
	if sp.Name == "" {
		return fmt.Errorf("workloadspec: spec needs a name")
	}
	if sp.Preset != nil {
		if len(sp.Clients) > 0 {
			return fmt.Errorf("workloadspec: spec %q sets both preset and clients", sp.Name)
		}
		switch sp.Preset.Name {
		case "Stock", "Rovio", "YSB", "DEBS":
		default:
			return fmt.Errorf("workloadspec: preset %q is not a paper workload (want Stock, Rovio, YSB, or DEBS)", sp.Preset.Name)
		}
		if sp.Preset.Scale <= 0 {
			return fmt.Errorf("workloadspec: preset %q needs a positive scale", sp.Preset.Name)
		}
		return nil
	}
	if len(sp.Clients) == 0 {
		return fmt.Errorf("workloadspec: spec %q has neither clients nor a preset", sp.Name)
	}
	if sp.WindowMs <= 0 {
		return fmt.Errorf("workloadspec: spec %q needs window_ms > 0", sp.Name)
	}
	if sp.DurationMs < 0 {
		return fmt.Errorf("workloadspec: spec %q has negative duration_ms", sp.Name)
	}
	if sp.DurationMs > 0 && sp.DurationMs < sp.WindowMs {
		return fmt.Errorf("workloadspec: spec %q duration_ms %d is shorter than window_ms %d", sp.Name, sp.DurationMs, sp.WindowMs)
	}
	if sp.RateR <= 0 && sp.RateS <= 0 {
		return fmt.Errorf("workloadspec: spec %q needs rate_r or rate_s > 0", sp.Name)
	}
	var fracSum float64
	seen := map[string]bool{}
	for i := range sp.Clients {
		c := &sp.Clients[i]
		if c.ID == "" {
			return fmt.Errorf("workloadspec: client %d needs an id", i)
		}
		if seen[c.ID] {
			return fmt.Errorf("workloadspec: duplicate client id %q", c.ID)
		}
		seen[c.ID] = true
		switch c.Stream {
		case "", "both", "R", "S":
		default:
			return fmt.Errorf("workloadspec: client %q: stream %q (want R, S, or both)", c.ID, c.Stream)
		}
		if c.RateFraction <= 0 || c.RateFraction > 1 {
			return fmt.Errorf("workloadspec: client %q: rate_fraction %v outside (0, 1]", c.ID, c.RateFraction)
		}
		fracSum += c.RateFraction
		if err := c.Arrival.validate(c.ID); err != nil {
			return err
		}
		if err := c.Keys.validate(c.ID); err != nil {
			return err
		}
		if p := c.Payload; p != nil {
			switch p.Kind {
			case PayloadSeq:
			case PayloadUniform:
				if p.Max < p.Min {
					return fmt.Errorf("workloadspec: client %q: payload max %d < min %d", c.ID, p.Max, p.Min)
				}
			default:
				return fmt.Errorf("workloadspec: client %q: payload kind %q (want seq or uniform)", c.ID, p.Kind)
			}
		}
	}
	if math.Abs(fracSum-1) > fracTolerance {
		return fmt.Errorf("workloadspec: spec %q: client rate fractions sum to %v, want 1", sp.Name, fracSum)
	}
	return nil
}

func (a *ArrivalSpec) validate(client string) error {
	switch a.Process {
	case ProcConstant, ProcPoisson:
	case ProcGamma:
		if a.CV < 0 {
			return fmt.Errorf("workloadspec: client %q: gamma cv %v must be non-negative", client, a.CV)
		}
	case ProcMMPP:
		if a.OnMs < 0 || a.OffMs < 0 {
			return fmt.Errorf("workloadspec: client %q: mmpp sojourns must be non-negative", client)
		}
	case ProcTrace:
		if a.Journal == "" {
			return fmt.Errorf("workloadspec: client %q: trace arrival needs a journal path", client)
		}
	default:
		return fmt.Errorf("workloadspec: client %q: unknown arrival process %q", client, a.Process)
	}
	return nil
}

func (k *KeySpec) validate(client string) error {
	switch k.Dist {
	case KeysUniform, KeysZipf:
	case KeysHotset:
		if k.HotFrac < 0 || k.HotFrac > 1 {
			return fmt.Errorf("workloadspec: client %q: hot_frac %v outside [0, 1]", client, k.HotFrac)
		}
		if k.HotKeys < 0 {
			return fmt.Errorf("workloadspec: client %q: hot_keys %d must be non-negative", client, k.HotKeys)
		}
	default:
		return fmt.Errorf("workloadspec: client %q: unknown key distribution %q", client, k.Dist)
	}
	if k.Domain < 1 {
		return fmt.Errorf("workloadspec: client %q: key domain %d must be at least 1", client, k.Domain)
	}
	if k.Dist == KeysZipf && k.Theta < 0 {
		return fmt.Errorf("workloadspec: client %q: zipf theta %v must be non-negative", client, k.Theta)
	}
	return nil
}

// duration returns the effective arrival span: DurationMs, defaulting to
// one window.
func (sp *Spec) duration() int64 {
	if sp.DurationMs > 0 {
		return sp.DurationMs
	}
	return sp.WindowMs
}
