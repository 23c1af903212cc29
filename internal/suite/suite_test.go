package suite

import (
	"strings"
	"testing"

	"repro/internal/store"
)

// minimal valid suite document used as the mutation base in error tests.
const validSuite = `{
  "schema": "pim-render/suite/v1",
  "name": "t",
  "defaults": {"width": 160, "height": 120},
  "cases": [
    {"id": "a", "tags": ["doom3", "fast"], "tier": "smoke", "spec": {"game": "doom3"}},
    {"id": "b", "tags": ["hl2"], "tier": "standard", "difficulty": "hard",
     "spec": {"game": "hl2", "design": "atfim", "width": 320, "height": 240}}
  ]
}`

func TestParseValidSuite(t *testing.T) {
	s, err := Parse([]byte(validSuite))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "t" || len(s.Cases) != 2 {
		t.Fatalf("parsed %q with %d cases", s.Name, len(s.Cases))
	}
	// Defaults overlay: case "a" inherits the resolution, case "b"
	// overrides it.
	sel := s.Select(Filter{})
	if got := sel[0].Spec; got.Width != 160 || got.Height != 120 || got.Game != "doom3" {
		t.Fatalf("case a effective spec %+v", got)
	}
	if got := sel[1].Spec; got.Width != 320 || got.Height != 240 || got.Design != "atfim" {
		t.Fatalf("case b effective spec %+v", got)
	}
}

func TestParseRejectsBadSuites(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"unknown top-level field",
			strings.Replace(validSuite, `"name": "t",`, `"name": "t", "casez": [],`, 1),
			"casez"},
		{"unknown spec field",
			strings.Replace(validSuite, `"game": "doom3"`, `"game": "doom3", "frame_idx": 2`, 1),
			"frame_idx"},
		{"wrong schema",
			strings.Replace(validSuite, "suite/v1", "suite/v2", 1),
			"schema"},
		{"missing name",
			strings.Replace(validSuite, `"name": "t",`, "", 1),
			"missing name"},
		{"no cases",
			`{"schema": "pim-render/suite/v1", "name": "t", "cases": []}`,
			"no cases"},
		{"duplicate case id",
			strings.Replace(validSuite, `"id": "b"`, `"id": "a"`, 1),
			"duplicate case id"},
		{"case id with slash",
			strings.Replace(validSuite, `"id": "a"`, `"id": "a/x"`, 1),
			"slashes or spaces"},
		{"missing case id",
			strings.Replace(validSuite, `"id": "a"`, `"id": ""`, 1),
			"no id"},
		{"unknown game",
			strings.Replace(validSuite, `"game": "doom3"`, `"game": "quake"`, 1),
			"unknown game"},
		{"unresolvable design",
			strings.Replace(validSuite, `"design": "atfim"`, `"design": "gddr7"`, 1),
			"unknown design"},
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c.doc)); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

func TestToleranceValidation(t *testing.T) {
	with := func(tol string) string {
		return strings.Replace(validSuite, `"cases":`, `"tolerances": `+tol+`, "cases":`, 1)
	}
	if _, err := Parse([]byte(with(`{"a.cycles": 0.01}`))); err != nil {
		t.Fatalf("valid tolerance rejected: %v", err)
	}
	bad := []struct{ name, tol, wantErr string }{
		{"no metric part", `{"a": 0.01}`, "<case-id>.<metric>"},
		{"unknown case", `{"zz.cycles": 0.01}`, "unknown case"},
		{"non-positive", `{"a.cycles": 0}`, "must be positive"},
		{"negative", `{"a.cycles": -0.5}`, "must be positive"},
	}
	for _, c := range bad {
		if _, err := Parse([]byte(with(c.tol))); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

func TestToleranceMerge(t *testing.T) {
	s, err := Parse([]byte(strings.Replace(validSuite, `"cases":`,
		`"tolerances": {"a.cycles": 0.05, "b.energy_j": 0.2}, "cases":`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	// Explicit base entries win over the suite's overrides.
	base := store.Tolerance{Rel: 1e-6, PerMetric: map[string]float64{"a.cycles": 0.5}}
	got := s.Tolerance(base)
	if got.Rel != 1e-6 {
		t.Fatalf("base Rel clobbered: %g", got.Rel)
	}
	if got.PerMetric["a.cycles"] != 0.5 {
		t.Fatalf("base per-metric entry overridden: %g", got.PerMetric["a.cycles"])
	}
	if got.PerMetric["b.energy_j"] != 0.2 {
		t.Fatalf("suite tolerance not merged: %+v", got.PerMetric)
	}
	if base.PerMetric["b.energy_j"] != 0 {
		t.Fatal("Tolerance mutated the base map")
	}
}

func TestFilterSemantics(t *testing.T) {
	s, err := Parse([]byte(validSuite))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		f    Filter
		want []string
	}{
		{"everything", Filter{}, []string{"a", "b"}},
		{"one tag", Filter{Tags: []string{"doom3"}}, []string{"a"}},
		{"tag case-insensitive", Filter{Tags: []string{"DOOM3"}}, []string{"a"}},
		{"all tags required", Filter{Tags: []string{"doom3", "hl2"}}, nil},
		{"both tags on one case", Filter{Tags: []string{"doom3", "fast"}}, []string{"a"}},
		{"tier", Filter{Tier: "smoke"}, []string{"a"}},
		{"tier case-insensitive", Filter{Tier: "SMOKE"}, []string{"a"}},
		{"difficulty", Filter{Difficulty: "hard"}, []string{"b"}},
		{"AND across fields", Filter{Tags: []string{"hl2"}, Tier: "smoke"}, nil},
		{"no match", Filter{Tier: "extended"}, nil},
	}
	for _, c := range cases {
		sel := s.Select(c.f)
		var got []string
		for _, cs := range sel {
			got = append(got, cs.ID)
		}
		if len(got) != len(c.want) {
			t.Errorf("%s: selected %v want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: selected %v want %v", c.name, got, c.want)
				break
			}
		}
	}
}

func TestDefaultsBoolOr(t *testing.T) {
	doc := `{
	  "schema": "pim-render/suite/v1",
	  "name": "t",
	  "defaults": {"width": 160, "height": 120, "disable_aniso": true},
	  "cases": [{"id": "a", "spec": {"game": "wolf"}}]
	}`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if sp := s.Select(Filter{})[0].Spec; !sp.DisableAniso {
		t.Fatal("boolean default not inherited")
	}
}

func TestParseSpecStrict(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"game": "doom3", "width": 320, "height": 240, "frame_idx": 1}`)); err == nil {
		t.Fatal("unknown spec field accepted")
	}
	sp, err := ParseSpec([]byte(`{"schema": "pim-render/spec/v1", "game": "doom3", "width": 320, "height": 240}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	sp.Schema = "pim-render/spec/v2"
	if err := sp.Validate(); err == nil {
		t.Fatal("wrong spec schema accepted")
	}
}

func TestSpecLabel(t *testing.T) {
	sp := Spec{Game: "doom3", Width: 640, Height: 480, Design: "atfim"}
	if got := sp.Label(); got != "doom3@640x480/A-TFIM" {
		t.Fatalf("Label()=%q", got)
	}
}

// TestResolveRejectsBadResolution: every surface resolves specs here, so
// a width or height outside [1, MaxDimension] must fail before it can
// size a framebuffer (negative sizes used to panic in makeslice, and 0x0
// "succeeded" with a 1-cycle frame).
func TestResolveRejectsBadResolution(t *testing.T) {
	cases := []struct {
		w, h int
		ok   bool
	}{
		{-8, 16, false},
		{16, -8, false},
		{0, 0, false},
		{0, 120, false},
		{160, 0, false},
		{MaxDimension + 1, 120, false},
		{160, MaxDimension + 1, false},
		{1, 1, true},
		{160, 120, true},
		{MaxDimension, MaxDimension, true},
	}
	for _, tc := range cases {
		sp := Spec{Game: "doom3", Width: tc.w, Height: tc.h, Design: "atfim"}
		_, err := sp.Resolve()
		if (err == nil) != tc.ok {
			t.Errorf("Resolve(%dx%d) err = %v, want ok=%v", tc.w, tc.h, err, tc.ok)
		}
	}
}
