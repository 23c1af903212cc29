package core

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/store"
	"repro/internal/workload"
)

// withStore attaches a fresh durable store (and an empty sweep-farm cache)
// for one test and detaches it on cleanup.
func withStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	SetResultStore(st)
	t.Cleanup(func() { SetResultStore(nil) })
	return st
}

// TestStoredResultRoundTrip pins the codec: a restored Result reproduces
// every aggregate and the full metrics/v1 document of the original run.
func TestStoredResultRoundTrip(t *testing.T) {
	wl := workload.MustGet("doom3", 320, 240)
	opts := Options{Design: config.ATFIM}
	r, err := Run(wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	key := cacheKey(wl, opts)
	man, payload, err := encodeStoredResult(r)
	if err != nil {
		t.Fatal(err)
	}
	if man.Workload != "doom3-320x240" || man.SimVersion != SimVersion || man.PayloadSchema != StoredResultSchema {
		t.Fatalf("manifest: %+v", man)
	}

	back, err := decodeStoredResult(key, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Restored() {
		t.Error("decoded result does not report Restored")
	}
	if back.Cycles() != r.Cycles() || back.TextureTraffic() != r.TextureTraffic() ||
		back.TotalTraffic() != r.TotalTraffic() {
		t.Fatalf("aggregates drifted: cycles %d/%d traffic %d/%d",
			back.Cycles(), r.Cycles(), back.TotalTraffic(), r.TotalTraffic())
	}
	if back.Energy.Total() != r.Energy.Total() {
		t.Fatalf("energy drifted: %v vs %v", back.Energy.Total(), r.Energy.Total())
	}
	if len(back.Image) != len(r.Image) {
		t.Fatalf("image length %d, want %d", len(back.Image), len(r.Image))
	}
	for i := range back.Image {
		if back.Image[i] != r.Image[i] {
			t.Fatalf("image pixel %d differs", i)
		}
	}
	origJSON, err := json.Marshal(r.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	backJSON, err := json.Marshal(back.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	if string(origJSON) != string(backJSON) {
		t.Fatal("restored metrics/v1 document differs from the original")
	}

	// The codec refuses payloads keyed for another cell.
	if _, err := decodeStoredResult(key+"/tampered", payload); err == nil {
		t.Fatal("decode accepted a payload under the wrong key")
	}
}

// TestRunCachedUsesStore is the cold→warm contract: after a memory-cache
// wipe (a "restart"), RunCached serves the persisted result instead of
// re-simulating, and a corrupted entry is recomputed and rewritten.
func TestRunCachedUsesStore(t *testing.T) {
	st := withStore(t)
	wl := workload.MustGet("doom3", 320, 240)
	opts := Options{Design: config.BPIM}

	cold, err := RunCached(wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if c := st.Counters(); c.Puts != 1 || c.Hits != 0 {
		t.Fatalf("cold counters: %+v", c)
	}

	ClearRunCache()
	warm, err := RunCached(wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if c := st.Counters(); c.Hits != 1 {
		t.Fatalf("warm run missed the store: %+v", c)
	}
	if !warm.Restored() {
		t.Error("warm result was re-simulated, not restored")
	}
	if warm.Cycles() != cold.Cycles() {
		t.Fatalf("warm cycles %d != cold %d", warm.Cycles(), cold.Cycles())
	}

	// Corrupt the entry on disk: the next restart-read treats it as a miss,
	// recomputes, and rewrites a good entry.
	ClearRunCache()
	path := st.EntryPath(cacheKey(wl, opts))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	redone, err := RunCached(wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if redone.Restored() {
		t.Error("corrupt entry was served instead of recomputed")
	}
	if c := st.Counters(); c.Corrupt != 1 || c.Puts != 2 {
		t.Fatalf("recovery counters: %+v", c)
	}
	ClearRunCache()
	again, err := RunCached(wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Restored() {
		t.Error("rewritten entry not served on the following run")
	}
	if again.Cycles() != cold.Cycles() {
		t.Fatalf("recovered cycles %d != original %d", again.Cycles(), cold.Cycles())
	}
}

// TestStoreTierAdapts exercises the farm-facing adapter directly.
func TestStoreTierAdapts(t *testing.T) {
	st := withStore(t)
	tier := StoreTier(st)
	if tier == nil {
		t.Fatal("nil tier for a live store")
	}
	if StoreTier(nil) != nil {
		t.Fatal("nil store should yield a nil Tier")
	}

	wl := workload.MustGet("doom3", 320, 240)
	opts := Options{Design: config.Baseline}
	key := cacheKey(wl, opts)
	if _, ok := tier.Get(key); ok {
		t.Fatal("hit on empty store")
	}
	r, err := Run(wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	tier.Put(key, r)
	tier.Put("other-key", "not a result") // silently ignored, wrong type
	v, ok := tier.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	back, ok := v.(*Result)
	if !ok || back.Cycles() != r.Cycles() {
		t.Fatalf("tier returned %T", v)
	}
	if _, ok := tier.Get("other-key"); ok {
		t.Fatal("non-Result Put produced an entry")
	}
}

// TestMetricsBuiltOnce: Metrics serves the snapshot built when the run
// finished — repeated calls allocate nothing and return the same value —
// and a store round trip restores a deeply equal document.
func TestMetricsBuiltOnce(t *testing.T) {
	wl := workload.MustGet("hl2", 64, 48)
	opts := Options{Design: config.ATFIM}
	r, err := Run(wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = r.Metrics() }); allocs != 0 {
		t.Fatalf("Metrics() allocates %.0f times per call, want 0", allocs)
	}
	if r.Metrics() != r.Metrics() {
		t.Fatal("Metrics() returned different snapshots for one result")
	}
	if len(r.Metrics().Histograms) == 0 {
		t.Fatal("live snapshot has no bandwidth histograms")
	}
	_, payload, err := encodeStoredResult(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeStoredResult(cacheKey(wl, opts), payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Metrics(), back.Metrics()) {
		t.Fatal("store round trip changed the metrics snapshot")
	}
}
