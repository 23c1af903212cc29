package tfim

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/hmc"
	"repro/internal/texture"
	"repro/internal/xrand"
)

// lineRequests returns one request per memory line 0..lines-1 of a square
// Morton texture's base level. Each request filters at LOD 0, so its 4
// parent texels all lie in that line's 4x4 texel block.
func lineRequests(tx *texture.Texture, lines int, angle float32) []gpu.TexRequest {
	w := float32(tx.Levels[0].W)
	reqs := make([]gpu.TexRequest, lines)
	for k := range reqs {
		bx, by := texture.MortonDecode(uint32(k * texture.LineTexelsPerLine))
		reqs[k] = gpu.TexRequest{
			Tex: tx, U: (float32(bx) + 2) / w, V: (float32(by) + 2) / w,
			Foot: texture.Footprint{N: 4, AxisU: 4 / w, Angle: angle},
		}
	}
	return reqs
}

// TestATFIMSampleZeroAlloc pins that a warmed A-TFIM path serves every
// kind of texture request without allocating. Each case warms a path with
// one pass over its request stream, then measures one Sample call per
// request of a second pass, and checks from the activity counters that the
// measured pass really took the intended route. The cube's bandwidth
// meters grow with simulated time (per-run state, amortized by append);
// that growth stays well under one allocation per call.
func TestATFIMSampleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tx := pathTexture(512)
	cfg0 := config.Default(config.ATFIM)
	l1Lines := cfg0.GPU.TexL1KB * 1024 / 64
	l2Lines := cfg0.GPU.TexL2KB * 1024 / 64
	cases := []struct {
		name string
		reqs []gpu.TexRequest
		// want checks the measured pass's activity delta.
		want func(d gpu.PathActivity) bool
	}{
		{"l1-hit", lineRequests(tx, 64, 0.3),
			func(d gpu.PathActivity) bool { return d.L2Accesses == 0 && d.OffloadPackets == 0 }},
		// Twice the L1 but a quarter of the L2, walked cyclically: every
		// L1 probe misses and every L2 probe hits.
		{"l2-hit", lineRequests(tx, 2*l1Lines, 0.3),
			func(d gpu.PathActivity) bool { return d.L2Accesses == d.L1Accesses && d.OffloadPackets == 0 }},
		// Twice the L2: every request offloads and computes a full line.
		{"full-line-miss", lineRequests(tx, 2*l2Lines, 0.3),
			func(d gpu.PathActivity) bool { return d.OffloadPackets == d.TexRequests && d.AngleRecalcs == 0 }},
		// The same lines again under a far camera angle, and back: every
		// request recalculates its parents.
		{"angle-recalc", append(lineRequests(tx, 64, 0.3), lineRequests(tx, 64, 1.3)...),
			func(d gpu.PathActivity) bool { return d.AngleRecalcs > 0 && d.OffloadPackets == d.TexRequests }},
	}
	for _, consolidate := range []bool{true, false} {
		cfg := config.Default(config.ATFIM)
		cfg.TFIM.Consolidate = consolidate
		for _, tc := range cases {
			a := NewATFIMPath(cfg, hmc.New(hmc.DefaultConfig()))
			now, next := int64(0), 0
			sample := func() {
				a.Sample(now, &tc.reqs[next%len(tc.reqs)])
				now += 4
				next++
			}
			for range tc.reqs {
				sample()
			}
			before := a.Activity()
			// AllocsPerRun makes one extra warm-up call, so the measured
			// calls start one request into the second pass.
			allocs := testing.AllocsPerRun(len(tc.reqs)-1, sample)
			if allocs != 0 {
				t.Errorf("%s (consolidate=%v): %v allocations per Sample",
					tc.name, consolidate, allocs)
			}
			if d := activityDelta(a.Activity(), before); !tc.want(d) {
				t.Errorf("%s (consolidate=%v): measured pass took another route: %+v",
					tc.name, consolidate, d)
			}
		}
	}
}

// activityDelta returns the counters accumulated between before and after.
func activityDelta(after, before gpu.PathActivity) gpu.PathActivity {
	return gpu.PathActivity{
		TexRequests:    after.TexRequests - before.TexRequests,
		L1Accesses:     after.L1Accesses - before.L1Accesses,
		L2Accesses:     after.L2Accesses - before.L2Accesses,
		OffloadPackets: after.OffloadPackets - before.OffloadPackets,
		AngleRecalcs:   after.AngleRecalcs - before.AngleRecalcs,
	}
}

// TestATFIMResetMatchesFresh checks TexturePath.Reset's contract: a path
// that has served requests and is then reset (over a reset cube) behaves
// exactly like a freshly built one.
func TestATFIMResetMatchesFresh(t *testing.T) {
	cfg := config.Default(config.ATFIM)
	tx := pathTexture(64)
	stream := func(seed uint64) []gpu.TexRequest {
		rng := xrand.New(seed)
		reqs := make([]gpu.TexRequest, 400)
		for i := range reqs {
			reqs[i] = request(tx, rng.Float32(), rng.Float32(), 1+rng.Intn(8), rng.Range(0, 1.5))
			reqs[i].Cluster = rng.Intn(cfg.GPU.TextureUnits)
		}
		return reqs
	}
	run := func(a *ATFIMPath, reqs []gpu.TexRequest) []gpu.TexResult {
		out := make([]gpu.TexResult, len(reqs))
		for i := range reqs {
			out[i] = a.Sample(int64(i*4), &reqs[i])
		}
		return out
	}

	usedCube := hmc.New(hmc.DefaultConfig())
	used := NewATFIMPath(cfg, usedCube)
	run(used, stream(1))
	used.Reset()
	usedCube.Reset()
	fresh := NewATFIMPath(cfg, hmc.New(hmc.DefaultConfig()))
	if got, want := used.DebugString(), fresh.DebugString(); got != want {
		t.Fatalf("DebugString after Reset = %q, fresh %q", got, want)
	}

	reqs := stream(2)
	gotRes, wantRes := run(used, reqs), run(fresh, reqs)
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatal("Sample results after Reset differ from a fresh path")
	}
	if got, want := used.Activity(), fresh.Activity(); got != want {
		t.Fatalf("Activity after Reset = %+v, fresh %+v", got, want)
	}
	if fresh.Activity().OffloadPackets == 0 {
		t.Fatal("stream never offloaded; DebugString is not exercised")
	}
	if got, want := used.DebugString(), fresh.DebugString(); got != want {
		t.Fatalf("DebugString after Reset = %q, fresh %q", got, want)
	}
}

// BenchmarkATFIMSample drives one path with requests sweeping a texture
// in scanline order under one camera angle, so most parents hit in the
// texture caches and a steady share of requests offloads, as in a
// rendered frame.
func BenchmarkATFIMSample(b *testing.B) {
	tx := pathTexture(512)
	a := NewATFIMPath(config.Default(config.ATFIM), hmc.New(hmc.DefaultConfig()))
	rng := xrand.New(7)
	reqs := make([]gpu.TexRequest, 64*1024)
	for i := range reqs {
		// Quarter-texel steps along 32 rows of 512 texels.
		u := (float32(i%2048) + rng.Float32()) / 2048
		v := (float32(i/2048) + rng.Float32()) / 512
		reqs[i] = request(tx, u, v, 1+rng.Intn(8), 0.3)
		reqs[i].Cluster = i % 16
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Sample(int64(i)*2, &reqs[i%len(reqs)])
	}
}
