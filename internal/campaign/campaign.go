// Package campaign turns parameter sweeps into first-class requests: an
// I–V curve or a T(E) spectrum is submitted once and executed as a ladder
// of bias points, each point an ordinary run of the underlying tier
// (in-process solver, qtsimd scheduler, or the sharded front).
//
// The physics motivation is the same data-movement argument the rest of
// the service stack follows: adjacent bias points share almost all of
// their converged self-energy structure, so a campaign chains them —
// point k+1 is warm-started from point k's Σ≷/Π≷ checkpoint through the
// existing submit envelope and the Born loop starts near the fixed point
// instead of at zero. A ladder run this way spends most of its wall time
// on the first point; the rest converge in a fraction of the iterations.
//
// A campaign's artifacts are served in two formats: CSV for plotting and
// JSON for programmatic diffing against point-by-point direct runs.
package campaign

import (
	"fmt"

	"negfsim/internal/core"
)

// Kind selects what a campaign computes.
type Kind string

// The two campaign kinds.
const (
	// IV sweeps the bias ladder and reports the terminal current at every
	// point — the I–V curve.
	IV Kind = "iv"
	// TE sweeps the bias ladder (a single point by default) and reports
	// the per-energy spectral current and effective transmission at each
	// point — the T(E) spectrum.
	TE Kind = "te"
)

// Request describes one campaign: the base run configuration plus the
// bias ladder swept over it. The JSON schema is strict; exactly one of
// the ladder spellings (biases, or bias_start/bias_stop/bias_points) may
// be used, and a TE request may omit both to mean "one spectrum at the
// config's own bias".
type Request struct {
	// Kind is "iv" or "te".
	Kind Kind `json:"kind"`
	// Config is the base run configuration; its Bias field is overridden
	// per ladder point. Campaign points are plain serial runs — Dist,
	// Space and Gate are rejected.
	Config core.RunConfig `json:"config"`

	// BiasStart/BiasStop/BiasPoints describe an evenly spaced ladder
	// inclusive of both ends.
	BiasStart  float64 `json:"bias_start,omitempty"`
	BiasStop   float64 `json:"bias_stop,omitempty"`
	BiasPoints int     `json:"bias_points,omitempty"`
	// Biases is the explicit ladder alternative.
	Biases []float64 `json:"biases,omitempty"`

	// WarmStart chains each point from the previous point's checkpoint
	// (sequential execution); nil means true. False fans the points out
	// cold and concurrently.
	WarmStart *bool `json:"warm_start,omitempty"`
}

// Warm reports the effective warm-start mode (default true).
func (r *Request) Warm() bool { return r.WarmStart == nil || *r.WarmStart }

// Validate checks the request: kind, base config, and ladder shape.
// Errors name the offending JSON field.
func (r *Request) Validate() error {
	switch r.Kind {
	case IV, TE:
	default:
		return fmt.Errorf("campaign: kind must be %q or %q, got %q", IV, TE, r.Kind)
	}
	// The serial-only rule comes first: it rejects a distributed campaign
	// whatever else its config holds.
	if r.Config.Dist != "" || r.Config.Space >= 2 || r.Config.Gate != nil {
		return fmt.Errorf("campaign: config: campaign points are plain serial runs (no dist, no space, no gate)")
	}
	if err := r.Config.Validate(); err != nil {
		return fmt.Errorf("campaign: config: %w", err)
	}
	explicit := len(r.Biases) > 0
	ranged := r.BiasStart != 0 || r.BiasStop != 0 || r.BiasPoints != 0
	if explicit && ranged {
		return fmt.Errorf("campaign: biases and bias_start/bias_stop/bias_points are mutually exclusive")
	}
	if ranged {
		if r.BiasPoints < 2 {
			return fmt.Errorf("campaign: bias_points: need ≥ 2 ladder points, got %d", r.BiasPoints)
		}
		if r.BiasStart == r.BiasStop {
			return fmt.Errorf("campaign: bias_stop: ladder endpoints coincide at %g", r.BiasStart)
		}
	}
	if !explicit && !ranged && r.Kind == IV {
		return fmt.Errorf("campaign: iv needs a ladder: biases, or bias_start/bias_stop/bias_points")
	}
	return nil
}

// Ladder expands the request's bias ladder. A TE request without one
// yields the single point at the base config's bias.
func (r *Request) Ladder() []float64 {
	if len(r.Biases) > 0 {
		return append([]float64(nil), r.Biases...)
	}
	if r.BiasPoints < 2 {
		return []float64{r.Config.Bias}
	}
	out := make([]float64, r.BiasPoints)
	step := (r.BiasStop - r.BiasStart) / float64(r.BiasPoints-1)
	for i := range out {
		out[i] = r.BiasStart + float64(i)*step
	}
	return out
}

// pointConfig is the run configuration of ladder point i.
func (r *Request) pointConfig(bias float64) core.RunConfig {
	cfg := r.Config
	cfg.Bias = bias
	return cfg
}
