package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// Spec describes one deterministic unit of simulation work. A Spec must
// be a pure function of its exported fields: two specs with equal
// Fingerprints must produce equal Outputs, which is what makes the
// result cache sound.
type Spec interface {
	// Kind names the job type: "process", "experiment", or "sweep".
	Kind() string
	// Validate rejects malformed specs before they reach the queue.
	Validate() error
	// Run executes the job. Implementations should observe ctx for
	// cancellation and call progress(done, total) as work completes.
	Run(ctx context.Context, progress func(done, total int)) (*Output, error)
}

// Output is a job's result payload, shaped for JSON transport.
type Output struct {
	// Values holds the raw per-trial measurements, in trial order.
	Values []float64 `json:"values,omitempty"`
	// Summary holds derived scalars (mean, ci95, max, ...).
	Summary map[string]float64 `json:"summary,omitempty"`
	// Tables holds rendered experiment tables.
	Tables []*sim.Table `json:"tables,omitempty"`
	// Findings are headline conclusion lines.
	Findings []string `json:"findings,omitempty"`
	// Meta carries string annotations (experiment id, claim, graph).
	Meta map[string]string `json:"meta,omitempty"`
	// Points holds per-point results of a sweep job, in flat grid order.
	Points []SweepPointResult `json:"points,omitempty"`
}

// Fingerprint returns the content address of a spec: a SHA-256 over the
// job kind and the canonical JSON encoding of the spec fields. Struct
// fields marshal in declaration order, so the encoding — and therefore
// the cache key — is deterministic.
func Fingerprint(spec Spec) string {
	payload, err := json.Marshal(spec)
	if err != nil {
		// Specs are plain data structs; marshal cannot fail in practice.
		panic(fmt.Sprintf("engine: fingerprint marshal: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(spec.Kind()))
	h.Write([]byte{0})
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))
}

// DecodeSpec builds a Spec of the given kind from raw JSON, rejecting
// unknown fields so client typos fail loudly at submit time.
func DecodeSpec(kind string, raw json.RawMessage) (Spec, error) {
	var spec Spec
	switch kind {
	case "process":
		spec = &ProcessSpec{}
	case "experiment":
		spec = &ExperimentSpec{}
	case "sweep":
		spec = &SweepSpec{}
	default:
		return nil, fmt.Errorf("engine: unknown job kind %q", kind)
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("engine: missing spec body for kind %q", kind)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		return nil, fmt.Errorf("engine: bad %s spec: %w", kind, err)
	}
	return spec, nil
}

// ExperimentSpec runs one registered paper-reproduction experiment
// (E1-E20) at the given scale: the workload of cobractl experiments.
type ExperimentSpec struct {
	// ID is the experiment identifier, e.g. "E1".
	ID string `json:"id"`
	// Scale is "quick" or "full".
	Scale string `json:"scale"`
	// Seed is the root random seed.
	Seed uint64 `json:"seed"`
}

// Kind implements Spec.
func (s *ExperimentSpec) Kind() string { return "experiment" }

// Validate implements Spec.
func (s *ExperimentSpec) Validate() error {
	if _, ok := experiments.Get(s.ID); !ok {
		return fmt.Errorf("engine: experiment: unknown ID %q", s.ID)
	}
	if _, err := s.scale(); err != nil {
		return err
	}
	return nil
}

func (s *ExperimentSpec) scale() (experiments.Scale, error) {
	switch s.Scale {
	case "quick", "":
		return experiments.Quick, nil
	case "full":
		return experiments.Full, nil
	default:
		return 0, fmt.Errorf("engine: experiment: unknown scale %q", s.Scale)
	}
}

// Run implements Spec. Experiments run to completion once started; the
// engine's cancellation takes effect only before the run begins.
func (s *ExperimentSpec) Run(ctx context.Context, progress func(done, total int)) (*Output, error) {
	r, ok := experiments.Get(s.ID)
	if !ok {
		return nil, fmt.Errorf("engine: experiment: unknown ID %q", s.ID)
	}
	scale, err := s.scale()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	progress(0, 1)
	res, err := r.Run(scale, s.Seed)
	if err != nil {
		return nil, err
	}
	progress(1, 1)
	return &Output{
		Tables:   res.Tables,
		Findings: res.Findings,
		Meta: map[string]string{
			"experiment": res.ID,
			"name":       r.Name,
			"claim":      res.Claim,
			"scale":      scale.String(),
		},
	}, nil
}
