package workloadspec

import (
	"math"
	"math/rand/v2"

	"repro/internal/zipf"
)

// Defaults for underspecified arrival knobs.
const (
	defaultGammaCV = 2.0
	defaultOnMs    = 100.0
	defaultOffMs   = 100.0
)

// arrivalTimes generates the client's arrival instants over [0, duration)
// milliseconds at the given rate (tuples per ms). Times are fractional
// milliseconds in non-decreasing order; the compiler floors them to the
// integer timestamps tuples carry. The process runs open-ended until the
// duration elapses, so the realized count fluctuates around
// rate × duration exactly as the process prescribes (constant is exact,
// Poisson is ±sqrt(n), gamma/MMPP burst accordingly).
func arrivalTimes(a ArrivalSpec, rate, duration float64, seed uint64, prof *TraceProfile) []float64 {
	if rate <= 0 || duration <= 0 {
		return nil
	}
	rng := rand.New(rand.NewPCG(seed, zipf.Mix64(seed)))
	switch a.Process {
	case ProcConstant:
		return constantTimes(rate, duration)
	case ProcPoisson:
		return poissonTimes(rate, duration, rng)
	case ProcGamma:
		cv := a.CV
		if cv == 0 {
			cv = defaultGammaCV
		}
		return gammaTimes(rate, duration, cv, rng)
	case ProcMMPP:
		on, off := a.OnMs, a.OffMs
		if on == 0 {
			on = defaultOnMs
		}
		if off == 0 {
			off = defaultOffMs
		}
		return mmppTimes(rate, duration, on, off, rng)
	case ProcTrace:
		return prof.times(rate, duration)
	}
	return nil
}

// constantTimes spaces arrivals exactly 1/rate apart, first at 0.
func constantTimes(rate, duration float64) []float64 {
	step := 1 / rate
	out := make([]float64, 0, int(rate*duration)+1)
	for t := 0.0; t < duration; t += step {
		out = append(out, t)
	}
	return out
}

// poissonTimes draws exponential inter-arrivals with mean 1/rate.
func poissonTimes(rate, duration float64, rng *rand.Rand) []float64 {
	var out []float64
	t := rng.ExpFloat64() / rate
	for t < duration {
		out = append(out, t)
		t += rng.ExpFloat64() / rate
	}
	return out
}

// gammaTimes draws gamma inter-arrivals with mean 1/rate and coefficient
// of variation cv: shape k = 1/cv², scale θ = cv²/rate. cv = 1 recovers
// Poisson; cv > 1 clusters arrivals into bursts separated by long gaps.
func gammaTimes(rate, duration, cv float64, rng *rand.Rand) []float64 {
	if cv == 1 {
		return poissonTimes(rate, duration, rng)
	}
	k := 1 / (cv * cv)
	theta := cv * cv / rate
	var out []float64
	t := gammaSample(rng, k) * theta
	for t < duration {
		out = append(out, t)
		t += gammaSample(rng, k) * theta
	}
	return out
}

// gammaSample draws Gamma(k, 1) via Marsaglia–Tsang squeeze; shapes below
// 1 boost through Gamma(k+1) scaled by U^(1/k), the standard reduction.
func gammaSample(rng *rand.Rand, k float64) float64 {
	if k < 1 {
		return gammaSample(rng, k+1) * math.Pow(rng.Float64(), 1/k)
	}
	d := k - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// mmppTimes simulates the two-state on/off MMPP: sojourns are exponential
// with means onMs/offMs, arrivals are Poisson at rateOn while on and
// silent while off. rateOn is scaled so the long-run average rate equals
// the requested rate.
func mmppTimes(rate, duration, onMs, offMs float64, rng *rand.Rand) []float64 {
	rateOn := rate * (onMs + offMs) / onMs
	var out []float64
	t := 0.0
	for t < duration {
		onEnd := t + rng.ExpFloat64()*onMs
		if onEnd > duration {
			onEnd = duration
		}
		at := t + rng.ExpFloat64()/rateOn
		for at < onEnd {
			out = append(out, at)
			at += rng.ExpFloat64() / rateOn
		}
		t = onEnd + rng.ExpFloat64()*offMs
	}
	return out
}
