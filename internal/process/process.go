package process

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/stats"
)

// Params is one parameterization of a process: JSON-shaped parameter
// values keyed by schema name. Values follow encoding/json conventions
// (numbers are float64, plus bool and string); CheckParams enforces the
// schema's declared types, so accessors may assume them.
type Params map[string]any

// Int returns the named integer parameter, or def when absent.
func (p Params) Int(name string, def int) int {
	if v, ok := p[name].(float64); ok {
		return int(v)
	}
	return def
}

// Float returns the named float parameter, or def when absent.
func (p Params) Float(name string, def float64) float64 {
	if v, ok := p[name].(float64); ok {
		return v
	}
	return def
}

// Bool returns the named bool parameter, or def when absent.
func (p Params) Bool(name string, def bool) bool {
	if v, ok := p[name].(bool); ok {
		return v
	}
	return def
}

// String returns the named string parameter, or def when absent.
func (p Params) String(name string, def string) string {
	if v, ok := p[name].(string); ok {
		return v
	}
	return def
}

// Clone returns a shallow copy of p (parameter values are scalars).
func (p Params) Clone() Params {
	if p == nil {
		return nil
	}
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// ParamSpec describes one parameter of a process: the unit of the
// self-describing schema served by GET /v1/processes and enforced by
// CheckParams.
type ParamSpec struct {
	// Name is the parameter key in Params.
	Name string `json:"name"`
	// Type is "int", "float", "bool", or "string".
	Type string `json:"type"`
	// Required marks parameters without a usable default.
	Required bool `json:"required,omitempty"`
	// Default documents the value used when the parameter is omitted.
	Default any `json:"default,omitempty"`
	// Min and Max bound numeric parameters (inclusive), when set.
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`
	// Enum lists the admissible values of a string parameter.
	Enum []string `json:"enum,omitempty"`
	// Doc is a one-line description.
	Doc string `json:"doc"`
}

// limit is a convenience constructor for ParamSpec.Min / ParamSpec.Max.
func limit(v float64) *float64 { return &v }

// ResultField describes one field of a process result — the output half
// of the self-describing schema served by GET /v1/processes, so clients
// can interpret Result payloads without reading Go source.
type ResultField struct {
	// Name is the field key: "values" for the per-trial array, the
	// summary key for summary scalars, the meta key for annotations.
	Name string `json:"name"`
	// Kind is where the field lives in a Result: "values", "summary",
	// or "meta".
	Kind string `json:"kind"`
	// Doc is a one-line description.
	Doc string `json:"doc"`
}

// uniformResults builds the result schema every process shares — the
// per-trial values array and the uniform summary scalars — with
// process-specific extras appended.
func uniformResults(valuesDoc string, extras ...ResultField) []ResultField {
	out := []ResultField{
		{Name: "values", Kind: "values", Doc: valuesDoc},
		{Name: "mean", Kind: "summary", Doc: "mean of the per-trial values"},
		{Name: "ci95", Kind: "summary", Doc: "95% confidence half-width of the mean"},
		{Name: "max", Kind: "summary", Doc: "maximum per-trial value"},
		{Name: "n", Kind: "summary", Doc: "graph vertex count"},
		{Name: "m", Kind: "summary", Doc: "graph edge count"},
	}
	return append(out, extras...)
}

// Run is one deterministic batch of work handed to Process.Run: Trials
// independent trials of the process on Graph, trial i seeded with
// stream i of Seed.
type Run struct {
	// Graph is the (already built) topology.
	Graph *graph.Graph
	// Params is the validated parameterization.
	Params Params
	// Trials is the number of independent trials (>= 1).
	Trials int
	// Seed is the root random seed; trial i uses stream i.
	Seed uint64
	// Progress, when non-nil, is called as trials complete.
	Progress func(done, total int)
	// Observer, when non-nil, is offered every trial for per-round
	// observation (see observe.go). Observation never perturbs the draw
	// sequence: results are identical with and without an observer.
	Observer Observer
}

// progress returns a never-nil progress callback.
func (r Run) progress() func(done, total int) {
	if r.Progress != nil {
		return r.Progress
	}
	return func(int, int) {}
}

// Result is a process run's outcome, shaped for JSON transport and
// content-addressed caching: it must be a pure function of the Run.
type Result struct {
	// Values holds the primary per-trial measurement (rounds, steps),
	// in trial order.
	Values []float64 `json:"values,omitempty"`
	// Summary holds derived scalars. Every process emits the uniform
	// keys "mean", "ci95", "max", "n", "m"; process-specific extras
	// (messages_mean, survival_rate, ...) ride alongside.
	Summary map[string]float64 `json:"summary,omitempty"`
	// Meta carries string annotations.
	Meta map[string]string `json:"meta,omitempty"`
}

// Process is the uniform contract every registered process implements.
// Implementations must be stateless values: all run state lives inside
// Run, so one Process serves concurrent jobs.
type Process interface {
	// Name is the unique registry key ("cobra", "walt", "push", ...).
	Name() string
	// Doc is a one-line description for discovery listings.
	Doc() string
	// ParamSpecs is the parameter schema, in display order.
	ParamSpecs() []ParamSpec
	// ResultSpecs is the result schema: every field Run emits, in
	// display order.
	ResultSpecs() []ResultField
	// Validate rejects malformed params (schema violations and
	// process-specific semantic constraints).
	Validate(p Params) error
	// Run executes the batch described by r. Implementations must be
	// deterministic given (Params, Graph, Trials, Seed), observe ctx
	// for cancellation, and report progress as trials complete.
	Run(ctx context.Context, r Run) (*Result, error)
}

// Info is the discovery view of one registered process, the element
// type of GET /v1/processes.
type Info struct {
	Name    string        `json:"name"`
	Doc     string        `json:"doc"`
	Params  []ParamSpec   `json:"params"`
	Results []ResultField `json:"results"`
}

// CheckParams validates p against a parameter schema: unknown names,
// missing required parameters, type mismatches, out-of-range numerics,
// and out-of-enum strings are all rejected. Processes call it from
// Validate before their semantic checks.
func CheckParams(schema []ParamSpec, p Params) error {
	byName := make(map[string]ParamSpec, len(schema))
	for _, ps := range schema {
		byName[ps.Name] = ps
	}
	for name := range p {
		if _, ok := byName[name]; !ok {
			return fmt.Errorf("process: unknown parameter %q", name)
		}
	}
	for _, ps := range schema {
		v, present := p[ps.Name]
		if !present {
			if ps.Required {
				return fmt.Errorf("process: parameter %q is required", ps.Name)
			}
			continue
		}
		switch ps.Type {
		case "int":
			f, ok := v.(float64)
			if !ok || f != math.Trunc(f) || math.Abs(f) > 1<<53 {
				return fmt.Errorf("process: parameter %q must be an integer, got %v", ps.Name, v)
			}
			if err := checkRange(ps, f); err != nil {
				return err
			}
		case "float":
			f, ok := v.(float64)
			if !ok {
				return fmt.Errorf("process: parameter %q must be a number, got %v", ps.Name, v)
			}
			if err := checkRange(ps, f); err != nil {
				return err
			}
		case "bool":
			if _, ok := v.(bool); !ok {
				return fmt.Errorf("process: parameter %q must be a bool, got %v", ps.Name, v)
			}
		case "string":
			s, ok := v.(string)
			if !ok {
				return fmt.Errorf("process: parameter %q must be a string, got %v", ps.Name, v)
			}
			if len(ps.Enum) > 0 {
				found := false
				for _, e := range ps.Enum {
					if s == e {
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("process: parameter %q must be one of %v, got %q", ps.Name, ps.Enum, s)
				}
			}
		default:
			return fmt.Errorf("process: schema bug: parameter %q has unknown type %q", ps.Name, ps.Type)
		}
	}
	return nil
}

func checkRange(ps ParamSpec, f float64) error {
	if ps.Min != nil && f < *ps.Min {
		return fmt.Errorf("process: parameter %q = %v below minimum %v", ps.Name, f, *ps.Min)
	}
	if ps.Max != nil && f > *ps.Max {
		return fmt.Errorf("process: parameter %q = %v above maximum %v", ps.Name, f, *ps.Max)
	}
	return nil
}

// HasParam reports whether the process declares a parameter of the
// given name — how the sweep planner decides whether a "ks" axis can
// apply to a process.
func HasParam(proc Process, name string) bool {
	for _, ps := range proc.ParamSpecs() {
		if ps.Name == name {
			return true
		}
	}
	return false
}

// Fingerprint returns the canonical content address of one process
// parameterization: SHA-256 over the process name and the canonical
// JSON encoding of params (encoding/json sorts map keys, so insertion
// order cannot perturb the address). It addresses (process, params)
// pairs on their own — e.g. for conformance pinning or external
// catalogs; the engine's job cache keys are computed independently by
// engine.Fingerprint over the full spec (graph, trials, seed
// included), which relies on the same sorted-map-key canonicalization
// for the embedded params.
func Fingerprint(name string, p Params) string {
	payload, err := json.Marshal(p)
	if err != nil {
		// Params hold only JSON scalars; marshal cannot fail in practice.
		panic(fmt.Sprintf("process: fingerprint marshal: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))
}

// base supplies the boilerplate half of a Process implementation: name,
// doc, schema, and schema-driven validation. Processes with semantic
// constraints beyond the schema override Validate and call CheckParams
// first.
type base struct {
	name    string
	doc     string
	params  []ParamSpec
	results []ResultField
}

func (b base) Name() string               { return b.name }
func (b base) Doc() string                { return b.doc }
func (b base) ParamSpecs() []ParamSpec    { return append([]ParamSpec(nil), b.params...) }
func (b base) ResultSpecs() []ResultField { return append([]ResultField(nil), b.results...) }
func (b base) Validate(p Params) error    { return CheckParams(b.params, p) }

// startVertex resolves the shared "start" parameter against a graph.
func startVertex(r Run) (int32, error) { return vertexParam(r, "start") }

// vertexParam resolves the named vertex parameter against a graph. The
// range check runs before the narrowing to int32, so a value such as
// 2^32+3 cannot wrap into the graph.
func vertexParam(r Run, name string) (int32, error) {
	v := r.Params.Int(name, 0)
	if v < 0 || v >= r.Graph.N() {
		return 0, fmt.Errorf("process: %s vertex %d outside graph %s", name, v, r.Graph)
	}
	return int32(v), nil
}

// uniformSummary builds the summary scalars every process shares.
func uniformSummary(values []float64, g *graph.Graph) map[string]float64 {
	mean, hw := stats.MeanCI(values)
	return map[string]float64{
		"mean": mean,
		"ci95": hw,
		"max":  stats.MaxFloat(values),
		"n":    float64(g.N()),
		"m":    float64(g.M()),
	}
}
