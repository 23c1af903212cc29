// Command pimload drives a pimfarm endpoint with open-loop load and
// reports admission/latency SLOs. Arrivals are scheduled at a fixed rate
// regardless of how the server is coping (open-loop: a slow server faces
// a growing backlog, not a politely backing-off client), split across a
// tenant mix and an interactive/batch class mix. Every submission is a
// synchronous POST /v1/jobs?wait=true; the report aggregates admission
// wait and end-to-end latency quantiles per class, reject rates per
// tenant, and goodput, as a pim-render/bench/v1 document (with an extra
// "slo" block) so the repo's bench tooling can ingest it.
//
// Usage:
//
//	pimload -target http://localhost:8080 -rate 8 -duration 30s \
//	  -interactive 0.5 -tenants 'alice=key-alice:3,bob:1' -out BENCH_load.json
//
// -verify additionally checks result integrity: every job of the same
// spec must produce the same result under load, and that result must be
// byte-identical to an unloaded serial simulation run in-process.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

func main() {
	var (
		target      = flag.String("target", "http://localhost:8080", "pimfarm base URL")
		rate        = flag.Float64("rate", 8, "open-loop arrival rate (jobs/sec)")
		duration    = flag.Duration("duration", 30*time.Second, "load duration")
		interactive = flag.Float64("interactive", 0.5, "fraction of arrivals submitted as interactive (rest are batch)")
		tenantsSpec = flag.String("tenants", "anonymous", "tenant mix: name[=key][:weight],... (weights default 1)")
		game        = flag.String("game", "doom3", "workload game")
		width       = flag.Int("width", 320, "frame width")
		height      = flag.Int("height", 240, "frame height")
		design      = flag.String("design", "baseline", "design point (baseline, bpim, stfim, atfim)")
		distinct    = flag.Int("distinct", 16, "distinct job specs cycled via frame_index (controls the cache-hit mix)")
		batchFrames = flag.Int("batch-frames", 2, "frames per batch-class job (>= 2 so batch stays inferable)")
		timeout     = flag.Duration("timeout", 2*time.Minute, "per-request client timeout (admission wait + simulation)")
		out         = flag.String("out", "pimload.json", "SLO report path (pim-render/bench/v1 JSON)")
		verify      = flag.Bool("verify", false, "verify per-spec result consistency under load and byte-identity against an unloaded in-process serial run")
	)
	flag.Parse()

	mix, err := parseTenantSpecs(*tenantsSpec)
	if err != nil {
		fatal(err)
	}
	if *rate <= 0 || *duration <= 0 {
		fatal(fmt.Errorf("need -rate > 0 and -duration > 0 (got %v, %v)", *rate, *duration))
	}
	if *interactive < 0 || *interactive > 1 {
		fatal(fmt.Errorf("-interactive must be in [0,1], got %v", *interactive))
	}
	if *distinct < 1 {
		*distinct = 1
	}
	if *batchFrames < 2 {
		*batchFrames = 2
	}

	cfg := loadConfig{
		Target:      *target,
		Rate:        *rate,
		Duration:    *duration,
		Interactive: *interactive,
		Tenants:     mix,
		Game:        *game,
		Width:       *width,
		Height:      *height,
		Design:      *design,
		Distinct:    *distinct,
		BatchFrames: *batchFrames,
		Timeout:     *timeout,
	}
	fmt.Fprintf(os.Stderr, "pimload: %s for %s at %.3g jobs/s (%d tenants, %.0f%% interactive, %d distinct specs)\n",
		cfg.Target, cfg.Duration, cfg.Rate, len(mix), cfg.Interactive*100, cfg.Distinct)

	samples, elapsed := runLoad(context.Background(), cfg)
	rep := buildReport(cfg, samples, elapsed)
	fetchSlowestStages(cfg, rep.SLO.Slowest)

	if *verify {
		n, err := verifyResults(cfg, samples)
		if err != nil {
			fatal(fmt.Errorf("verify: %w", err))
		}
		rep.SLO.VerifiedSpecs = n
		fmt.Fprintf(os.Stderr, "pimload: verified %d distinct specs byte-identical to unloaded serial run\n", n)
	}

	if err := writeReport(*out, rep); err != nil {
		fatal(err)
	}
	printSummary(os.Stderr, rep)
	fmt.Fprintf(os.Stderr, "pimload: report written to %s\n", *out)
}

// specKey identifies one distinct computation: a frame index at one
// class shape (interactive jobs render one frame; batch jobs sweep
// cfg.BatchFrames, so the two shapes are different cache entries).
type specKey struct {
	FrameIndex int
	Batch      bool
}

// verifyResults checks two properties over the run's completed jobs:
// within the load run, every completion of the same spec carried the same
// result (one hash per spec), and that hash matches an unloaded serial
// in-process simulation of the same spec — the admission layer's
// results-are-byte-identical guarantee, checked end to end.
func verifyResults(cfg loadConfig, samples []sample) (int, error) {
	bySpec := map[specKey]string{}
	for _, s := range samples {
		if !s.OK || s.ResultHash == "" {
			continue
		}
		k := specKey{FrameIndex: s.FrameIndex, Batch: s.Batch}
		if prev, ok := bySpec[k]; ok && prev != s.ResultHash {
			return 0, fmt.Errorf("spec %+v produced divergent results under load (%s vs %s)", k, prev, s.ResultHash)
		}
		bySpec[k] = s.ResultHash
	}
	for k, want := range bySpec {
		sp := cfg.request(k.FrameIndex, k.Batch)
		sp.Shards = 1 // serial: the unloaded reference run
		rv, err := sp.Resolve()
		if err != nil {
			return 0, err
		}
		res, err := core.RunContext(context.Background(), rv.Workload, rv.Options)
		if err != nil {
			return 0, err
		}
		if got := snapshotHash(res.Metrics()); got != want {
			return 0, fmt.Errorf("spec %+v: loaded result differs from unloaded serial simulation (%s vs %s)", k, want, got)
		}
	}
	return len(bySpec), nil
}

// snapshotHash canonicalizes a result snapshot for comparison: the Build
// provenance stamp names the producing binary, not the computation, so it
// is dropped before hashing.
func snapshotHash(s *obs.Snapshot) string {
	c := *s
	c.Build = nil
	return hashJSON(c)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pimload:", err)
	os.Exit(1)
}
