// Package suite is the declarative scenario layer: a canonical
// pim-render/spec/v1 simulation-spec type that every surface (pimsim and
// paperbench flags, pimfarm job bodies and journal records, pimload
// generators, distributed-worker grants) constructs and consumes, plus the
// pim-render/suite/v1 suite format that bundles many specs into a named,
// filterable scenario set with golden-baseline tolerances.
//
// The one-true-mapping rule: Spec.Resolve is the only place in the tree
// where a declarative spec becomes a (workload.Workload, core.Options,
// core.CacheKey) triple. Surfaces never hand-map their own structs onto
// core.Options — they build a Spec and resolve it, so two surfaces given
// the same spec always key, dedup, and cache identically.
package suite

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workload"
)

// SpecSchema identifies the canonical simulation-spec document.
const SpecSchema = "pim-render/spec/v1"

// MaxDimension bounds a spec's width and height in pixels.
const MaxDimension = 4096

// Spec is the canonical declarative description of one simulation: which
// workload, which design, and every ablation knob the simulator exposes.
// Its JSON form is the pimfarm POST /v1/jobs body, the dist lease grant
// spec, the journal record spec, and the per-case "spec" object in suite
// files — one wire format everywhere.
//
// Shards, Profile and Class are host/scheduling knobs: they never change
// simulated results and are excluded from the cache identity, so equal
// specs differing only in them collapse onto one computation.
type Spec struct {
	// Schema optionally self-identifies the document (SpecSchema). Empty is
	// accepted everywhere a Spec is embedded in a larger document; when set
	// it must match SpecSchema.
	Schema string `json:"schema,omitempty"`

	// Game and the render resolution select the workload.
	Game   string `json:"game"`
	Width  int    `json:"width"`
	Height int    `json:"height"`
	// Design names the architecture (config.ParseDesign spellings; empty =
	// baseline).
	Design string `json:"design,omitempty"`

	AngleThreshold       float32 `json:"angle_threshold,omitempty"`
	DisableAniso         bool    `json:"disable_aniso,omitempty"`
	FrameIndex           int     `json:"frame_index,omitempty"`
	Frames               int     `json:"frames,omitempty"`
	LinearLayout         bool    `json:"linear_layout,omitempty"`
	DisableConsolidation bool    `json:"disable_consolidation,omitempty"`
	MTUs                 int     `json:"mtus,omitempty"`
	Compressed           bool    `json:"compressed,omitempty"`
	HMCCubes             int     `json:"hmc_cubes,omitempty"`

	// Shards is the host-parallelism knob (worker goroutines per frame);
	// results are byte-identical at any value.
	Shards int `json:"shards,omitempty"`
	// Profile opts a pimfarm job into frame-anatomy capture. Runtime-only.
	Profile bool `json:"profile,omitempty"`
	// Class is the admission priority-class label ("interactive", "batch");
	// scheduling-only, empty lets the server infer one.
	Class string `json:"class,omitempty"`
}

// Resolved is a spec bound to the simulator: the concrete workload, the
// options the simulator runs, and the cache identity the farm, run cache
// and durable store all key on.
type Resolved struct {
	Workload workload.Workload
	Options  core.Options
	// Key is core.CacheKey(Workload, Options) — the dedup/cache identity.
	Key string
}

// Resolve validates the spec and maps it onto the simulator. This is the
// single Spec → core.Options/CacheKey construction path in the tree; every
// surface that accepts a declarative spec funnels through it.
func (s *Spec) Resolve() (Resolved, error) {
	if s.Schema != "" && s.Schema != SpecSchema {
		return Resolved{}, fmt.Errorf("spec schema %q (want %q)", s.Schema, SpecSchema)
	}
	design, err := config.ParseDesign(s.Design)
	if err != nil {
		return Resolved{}, err
	}
	if s.Width < 1 || s.Width > MaxDimension || s.Height < 1 || s.Height > MaxDimension {
		return Resolved{}, fmt.Errorf("resolution %dx%d out of range: width and height must be in [1, %d]",
			s.Width, s.Height, MaxDimension)
	}
	wl, err := workload.Get(s.Game, s.Width, s.Height)
	if err != nil {
		return Resolved{}, err
	}
	opts := core.Options{
		Design:               design,
		AngleThreshold:       s.AngleThreshold,
		DisableAniso:         s.DisableAniso,
		FrameIndex:           s.FrameIndex,
		Frames:               s.Frames,
		LinearLayout:         s.LinearLayout,
		DisableConsolidation: s.DisableConsolidation,
		MTUs:                 s.MTUs,
		Compressed:           s.Compressed,
		HMCCubes:             s.HMCCubes,
		Shards:               s.Shards,
	}
	if err := core.ValidateOptions(opts); err != nil {
		return Resolved{}, err
	}
	return Resolved{Workload: wl, Options: opts, Key: core.CacheKey(wl, opts)}, nil
}

// Validate reports whether the spec resolves to a runnable configuration.
func (s *Spec) Validate() error {
	_, err := s.Resolve()
	return err
}

// Label names the spec in job listings and trace spans ("game@WxH/Design").
func (s *Spec) Label() string {
	design, err := config.ParseDesign(s.Design)
	if err != nil {
		return fmt.Sprintf("%s@%dx%d/%s", s.Game, s.Width, s.Height, s.Design)
	}
	return fmt.Sprintf("%s@%dx%d/%s", s.Game, s.Width, s.Height, design)
}

// ParseSpec decodes a standalone spec/v1 JSON document strictly: unknown
// fields are rejected so typos ("frame_idx") fail loudly instead of
// silently simulating the wrong configuration.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("suite: spec: %w", err)
	}
	return &sp, nil
}
