package tfim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/gpu"
	"repro/internal/hmc"
	"repro/internal/texture"
	"repro/internal/xrand"
)

// pathTexture builds a deterministic texture with addresses assigned.
func pathTexture(size int) *texture.Texture {
	tx := texture.NewTexture(0, "t", size, size, texture.LayoutMorton, texture.WrapRepeat)
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			v := xrand.Hash2D(0xabc, int32(x), int32(y))
			tx.SetTexel(0, x, y, texture.Color{R: v, G: 1 - v, B: 0.5, A: 1})
		}
	}
	tx.BuildMipmaps()
	tx.AssignAddresses(0)
	return tx
}

func request(tx *texture.Texture, u, v float32, n int, angle float32) gpu.TexRequest {
	return gpu.TexRequest{
		Tex: tx, U: u, V: v,
		Foot: texture.Footprint{
			Lod: 0.7, N: n, AxisU: float32(n) / float32(tx.Levels[0].W), Angle: angle,
		},
	}
}

func colorsCloseT(a, b texture.Color, eps float32) bool {
	abs := func(x float32) float32 {
		if x < 0 {
			return -x
		}
		return x
	}
	return abs(a.R-b.R) <= eps && abs(a.G-b.G) <= eps && abs(a.B-b.B) <= eps && abs(a.A-b.A) <= eps
}

// refColor computes the reference filtered color with a plain sampler.
func refColor(tx *texture.Texture, req *gpu.TexRequest) texture.Color {
	s := texture.Sampler{MaxAniso: 16}
	return s.SampleAniso(tx, req.U, req.V, req.Foot)
}

func TestBaselinePathFunctionalCorrectness(t *testing.T) {
	cfg := config.Default(config.Baseline)
	b := NewBaselinePath(cfg, dram.New(dram.DefaultConfig()))
	tx := pathTexture(64)
	rng := xrand.New(4)
	for i := 0; i < 300; i++ {
		req := request(tx, rng.Float32(), rng.Float32(), 1+rng.Intn(8), 0.2)
		res := b.Sample(int64(i*3), &req)
		if want := refColor(tx, &req); !colorsCloseT(res.Color, want, 1e-5) {
			t.Fatalf("baseline color diverges at %d: %+v want %+v", i, res.Color, want)
		}
	}
	act := b.Activity()
	if act.TexRequests != 300 || act.GPUTexelFetches == 0 {
		t.Fatalf("activity wrong: %+v", act)
	}
}

func TestBaselineVsBPIMNames(t *testing.T) {
	cfg := config.Default(config.Baseline)
	if NewBaselinePath(cfg, dram.New(dram.DefaultConfig())).Name() != "baseline" {
		t.Error("baseline name")
	}
	if NewBaselinePath(config.Default(config.BPIM), hmc.New(hmc.DefaultConfig())).Name() != "b-pim" {
		t.Error("b-pim name")
	}
}

func TestSTFIMFunctionalCorrectness(t *testing.T) {
	// S-TFIM computes the same filtering math as the baseline — only the
	// location changes — so its colors must match exactly.
	cfg := config.Default(config.STFIM)
	s := NewSTFIMPath(cfg, hmc.New(hmc.DefaultConfig()))
	tx := pathTexture(64)
	rng := xrand.New(5)
	for i := 0; i < 300; i++ {
		req := gpu.TexRequest{Tex: tx, U: rng.Float32(), V: rng.Float32(),
			Foot: texture.Footprint{Lod: 1.2, N: 1 + rng.Intn(8), AxisU: 0.05}}
		res := s.Sample(int64(i*3), &req)
		if want := refColor(tx, &req); !colorsCloseT(res.Color, want, 1e-5) {
			t.Fatalf("s-tfim color diverges at %d", i)
		}
	}
	act := s.Activity()
	if act.OffloadPackets != 300 || act.ResponsePackets != 300 {
		t.Fatalf("package counts wrong: %+v", act)
	}
	if act.PIMTexelFetches == 0 || act.GPUTexelFetches != 0 {
		t.Fatal("S-TFIM must fetch texels in memory, not on the GPU")
	}
}

func TestSTFIMTrafficExceedsDataMoved(t *testing.T) {
	// The live-texture packages are the point of Section IV: request +
	// response bytes per texture request dwarf a baseline cache fill.
	cfg := config.Default(config.STFIM)
	s := NewSTFIMPath(cfg, hmc.New(hmc.DefaultConfig()))
	tx := pathTexture(64)
	req := request(tx, 0.3, 0.3, 4, 0)
	for i := 0; i < 100; i++ {
		s.Sample(int64(i*5), &req)
	}
	perRequest := float64(s.Traffic().Total()) / 100
	if perRequest < 30 {
		t.Fatalf("S-TFIM package traffic %.1f B/request implausibly low", perRequest)
	}
}

func TestATFIMMatchesReorderedReference(t *testing.T) {
	// With a fresh cache and consistent angles, A-TFIM's output equals
	// the reordered sampler over exact child averages, which in turn
	// matches the conventional order (Eq. 3) up to RGBA8 quantization of
	// the cached parent texels.
	cfg := config.Default(config.ATFIM)
	a := NewATFIMPath(cfg, hmc.New(hmc.DefaultConfig()))
	tx := pathTexture(64)
	rng := xrand.New(6)
	// Fixed footprint shape across requests: cached parent texels are then
	// exact for every consumer (varying footprints under one camera angle
	// are the design's deliberate approximation, tested separately).
	for i := 0; i < 300; i++ {
		req := request(tx, rng.Float32(), rng.Float32(), 4, 0.3)
		res := a.Sample(int64(i*4), &req)
		want := refColor(tx, &req)
		// Parent texels cross the cache as RGBA8: allow quantization.
		if !colorsCloseT(res.Color, want, 2.5/255) {
			t.Fatalf("a-tfim color diverges at %d: %+v want %+v", i, res.Color, want)
		}
	}
	act := a.Activity()
	if act.GPUTexelFetches != 300*8 {
		t.Fatalf("A-TFIM fetched %d parent texels, want %d (8 per request)",
			act.GPUTexelFetches, 300*8)
	}
}

func TestATFIMCacheReuseReducesOffloads(t *testing.T) {
	cfg := config.Default(config.ATFIM)
	a := NewATFIMPath(cfg, hmc.New(hmc.DefaultConfig()))
	tx := pathTexture(64)
	req := request(tx, 0.5, 0.5, 4, 0.3)
	a.Sample(0, &req)
	first := a.Activity().OffloadPackets
	for i := 0; i < 50; i++ {
		a.Sample(int64(100+i*4), &req)
	}
	if got := a.Activity().OffloadPackets; got != first {
		t.Fatalf("repeated identical request re-offloaded: %d -> %d", first, got)
	}
}

func TestATFIMAngleThresholdForcesRecalc(t *testing.T) {
	cfg := config.Default(config.ATFIM)
	cfg.TFIM.AngleThreshold = 0.01
	a := NewATFIMPath(cfg, hmc.New(hmc.DefaultConfig()))
	tx := pathTexture(64)

	req := request(tx, 0.5, 0.5, 4, 0.30)
	a.Sample(0, &req)
	base := a.Activity()

	// Same address, angle within threshold: reuse.
	req2 := request(tx, 0.5, 0.5, 4, 0.305)
	a.Sample(100, &req2)
	if got := a.Activity(); got.AngleRecalcs != base.AngleRecalcs {
		t.Fatalf("within-threshold angle triggered recalcs")
	}

	// Beyond threshold: recalculation.
	req3 := request(tx, 0.5, 0.5, 4, 0.50)
	a.Sample(200, &req3)
	if got := a.Activity(); got.AngleRecalcs == base.AngleRecalcs {
		t.Fatal("beyond-threshold angle did not recalculate")
	}
}

// TestATFIMStaleAngleIsApproximate shows the quality mechanism of Figs
// 14-16: with a loose threshold, a parent texel computed under one camera
// angle is reused for a fragment whose correct footprint axis differs,
// producing a (bounded) color error.
func TestATFIMStaleAngleIsApproximate(t *testing.T) {
	cfg := config.Default(config.ATFIM)
	cfg.TFIM.AngleThreshold = 3.14 // no recalculation
	a := NewATFIMPath(cfg, hmc.New(hmc.DefaultConfig()))
	tx := pathTexture(64)

	// Prime the cache with a horizontal anisotropy axis.
	prime := request(tx, 0.5, 0.5, 8, 0.2)
	a.Sample(0, &prime)

	// Request the same parents with a vertical axis: the correct answer
	// differs, but the stale cached parents are reused.
	crossFoot := texture.Footprint{Lod: 0.7, N: 8, AxisV: 8.0 / 64, Angle: 1.2}
	cross := gpu.TexRequest{Tex: tx, U: 0.5, V: 0.5, Foot: crossFoot}
	res := a.Sample(100, &cross)
	want := refColor(tx, &cross)
	if colorsCloseT(res.Color, want, 1.0/255) {
		t.Log("note: stale reuse happened to match the correct color here")
	}
	if a.Activity().AngleRecalcs != 0 {
		t.Fatal("no-recalc threshold still recalculated")
	}
	// Sanity: the approximate result is still a valid color.
	if res.Color.A < 0.99 {
		t.Fatalf("approximated color corrupted: %+v", res.Color)
	}
}

func TestATFIMConsolidationCountsMerges(t *testing.T) {
	cfg := config.Default(config.ATFIM)
	a := NewATFIMPath(cfg, hmc.New(hmc.DefaultConfig()))
	tx := pathTexture(64)
	req := request(tx, 0.37, 0.41, 8, 0.3)
	a.Sample(0, &req)
	act := a.Activity()
	if act.ConsolidatedFetches == 0 {
		t.Fatal("child texel consolidation merged nothing for an 8x footprint")
	}
	if act.PIMTexelFetches <= act.ConsolidatedFetches {
		t.Fatal("consolidated more fetches than issued")
	}
}

func TestATFIMConsolidationDisabled(t *testing.T) {
	cfg := config.Default(config.ATFIM)
	cfg.TFIM.Consolidate = false
	a := NewATFIMPath(cfg, hmc.New(hmc.DefaultConfig()))
	tx := pathTexture(64)
	req := request(tx, 0.37, 0.41, 8, 0.3)
	a.Sample(0, &req)
	if a.Activity().ConsolidatedFetches != 0 {
		t.Fatal("disabled consolidation still merged fetches")
	}
}

func TestPathResets(t *testing.T) {
	cfg := config.Default(config.ATFIM)
	a := NewATFIMPath(cfg, hmc.New(hmc.DefaultConfig()))
	tx := pathTexture(64)
	req := request(tx, 0.5, 0.5, 4, 0.3)
	a.Sample(0, &req)
	a.Reset()
	if a.Activity().TexRequests != 0 || a.Traffic().Total() != 0 {
		t.Fatal("reset did not clear activity/traffic")
	}
	if len(a.CacheStats()) == 0 {
		t.Fatal("cache stats missing")
	}
}

func TestUnitTimingWindow(t *testing.T) {
	u := newUnitTiming(2)
	// Two outstanding misses fill the window; the third must wait for the
	// first to complete.
	a, i1 := u.admit2(0)
	if a != 0 || i1 != 0 {
		t.Fatal("first admit should be immediate")
	}
	u.retire(0, 1, 100, true)
	_, i2 := u.admit2(1)
	if i2 != 1 {
		t.Fatalf("second admit at %d want 1", i2)
	}
	u.retire(i2, 1, 200, true)
	_, i3 := u.admit2(2)
	if i3 != 100 {
		t.Fatalf("third admit at %d, want 100 (oldest outstanding miss)", i3)
	}
}

func TestBufferTimingCapacity(t *testing.T) {
	b := newBufferTiming(2)
	if b.admit(5) != 5 {
		t.Fatal("empty buffer delayed admission")
	}
	b.retire(50)
	b.retire(60)
	// Third admission waits for the oldest (50).
	if got := b.admit(10); got != 50 {
		t.Fatalf("admit %d want 50", got)
	}
}

func TestPackageMeterQuadCoalescing(t *testing.T) {
	var m packageMeter
	total := 0
	for i := 0; i < 8; i++ {
		total += m.bytes(64, 16)
	}
	// Two full packages + six increments.
	if total != 2*64+6*16 {
		t.Fatalf("coalesced bytes %d want %d", total, 2*64+6*16)
	}
}

func TestGranuleTableEpochs(t *testing.T) {
	var g granuleTable
	g.next()
	const n = 1000 // forces several grows with live entries
	for i := 0; i < n; i++ {
		p, seen := g.slot(uint64(i) * internalGranule)
		if seen {
			t.Fatalf("granule %d seen before it was recorded", i)
		}
		*p = int64(i)
	}
	for i := 0; i < n; i++ {
		if p, seen := g.slot(uint64(i) * internalGranule); !seen || *p != int64(i) {
			t.Fatalf("granule %d: seen=%v done=%d, want true %d", i, seen, *p, i)
		}
	}
	size := len(g.slots)
	g.next()
	if _, seen := g.slot(0); seen {
		t.Fatal("next() did not forget the previous offload's granules")
	}
	if len(g.slots) != size {
		t.Fatalf("table resized from %d to %d slots after next()", size, len(g.slots))
	}
}
