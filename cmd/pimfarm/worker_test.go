package main

// Tests for the dist worker's execution path (execGrant): the store check
// before simulating, the write-through after, and lease-loss cancellation
// of the simulation itself.

import (
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/farm/dist"
	"repro/internal/obs/dtrace"
	"repro/internal/store"
	"repro/internal/suite"
)

// testGrant builds the lease grant the coordinator would hand out for sp.
func testGrant(t *testing.T, sp suite.Spec) (*dist.Grant, suite.Resolved) {
	t.Helper()
	rv, err := sp.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	return &dist.Grant{Lease: "lease-1", Job: "job-1", Key: rv.Key, Spec: raw}, rv
}

func openTestStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// tracedCtx carries a span recorder, as dist.Worker provides for a
// sampled grant.
func tracedCtx(ctx context.Context) (context.Context, *dtrace.Recorder) {
	rec := dtrace.NewRecorder(dtrace.Mint("worker-test", 1), 0)
	return dtrace.WithRecorder(ctx, rec), rec
}

// TestExecGrantStoreHit: a key already in the store is served without
// simulating — no progress callback fires, and the "tiers" span says hit.
func TestExecGrantStoreHit(t *testing.T) {
	st := openTestStore(t)
	g, rv := testGrant(t, suite.Spec{Game: "doom3", Width: 64, Height: 48, Design: "atfim"})
	want, err := core.Run(rv.Workload, rv.Options)
	if err != nil {
		t.Fatal(err)
	}
	core.StoreTier(st).Put(g.Key, want)

	ctx, rec := tracedCtx(context.Background())
	var progress atomic.Int32
	payload, err := execGrant(st)(ctx, g, func(any) { progress.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if n := progress.Load(); n != 0 {
		t.Fatalf("store hit reported %d progress callbacks, want 0 (it simulated)", n)
	}
	got, err := core.DecodeResultPayload(g.Key, payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles() != want.Cycles() {
		t.Fatalf("cycles %d, want %d", got.Cycles(), want.Cycles())
	}
	if c := st.Counters(); c.Hits != 1 || c.Puts != 1 {
		t.Fatalf("store counters %+v, want 1 hit and only the seeding put", c)
	}
	var tiers *dtrace.Span
	for _, sp := range rec.Spans() {
		if sp.Name == "tiers" {
			sp := sp
			tiers = &sp
		}
	}
	if tiers == nil || tiers.Attrs["hit"] != "true" {
		t.Fatalf("tiers span = %+v, want hit=true", tiers)
	}
}

// TestExecGrantColdWritesThrough: a cold key simulates, is written to the
// store once, and the next grant of the same key is a store hit.
func TestExecGrantColdWritesThrough(t *testing.T) {
	st := openTestStore(t)
	g, _ := testGrant(t, suite.Spec{Game: "fear", Width: 64, Height: 48, Design: "stfim"})
	exec := execGrant(st)

	var progress atomic.Int32
	payload, err := exec(context.Background(), g, func(any) { progress.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if progress.Load() == 0 {
		t.Fatal("cold key reported no progress: it did not simulate")
	}
	if c := st.Counters(); c.Puts != 1 || c.Hits != 0 {
		t.Fatalf("cold counters %+v, want 1 put, 0 hits", c)
	}
	cold, err := core.DecodeResultPayload(g.Key, payload)
	if err != nil {
		t.Fatal(err)
	}

	progress.Store(0)
	payload, err = exec(context.Background(), g, func(any) { progress.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if n := progress.Load(); n != 0 {
		t.Fatalf("second grant reported %d progress callbacks, want a store hit", n)
	}
	if c := st.Counters(); c.Puts != 1 || c.Hits != 1 {
		t.Fatalf("warm counters %+v, want 1 put, 1 hit", c)
	}
	warm, err := core.DecodeResultPayload(g.Key, payload)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cycles() != cold.Cycles() {
		t.Fatalf("warm cycles %d != cold %d", warm.Cycles(), cold.Cycles())
	}
}

// TestExecGrantCancelStopsSimulation: losing the lease (the exec ctx is
// canceled) mid-simulation stops the simulation itself promptly, and
// nothing is written to the store.
func TestExecGrantCancelStopsSimulation(t *testing.T) {
	st := openTestStore(t)
	g, _ := testGrant(t, suite.Spec{Game: "doom3", Width: 320, Height: 240, Design: "atfim", Frames: 4})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var canceledAt atomic.Int64
	progress := func(any) {
		if canceledAt.Load() == 0 {
			canceledAt.Store(time.Now().UnixNano())
			cancel()
		}
	}
	_, err := execGrant(st)(ctx, g, progress)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("exec err = %v, want context.Canceled", err)
	}
	if lag := returned.Sub(time.Unix(0, canceledAt.Load())); lag > 5*time.Second {
		t.Fatalf("exec returned %v after cancellation, want prompt", lag)
	}
	if c := st.Counters(); c.Puts != 0 {
		t.Fatalf("canceled run wrote %d store entries", c.Puts)
	}
}
