package texture

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// noiseTexture builds a deterministic test texture with high-frequency
// content on every mip level.
func noiseTexture(size int) *Texture {
	tx := NewTexture(0, "noise", size, size, LayoutMorton, WrapRepeat)
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			v := xrand.Hash2D(0xfeed, int32(x), int32(y))
			tx.SetTexel(0, x, y, Color{R: v, G: 1 - v, B: v * v, A: 1})
		}
	}
	tx.BuildMipmaps()
	return tx
}

func colorsClose(a, b Color, eps float32) bool {
	d := func(x, y float32) bool { return float32(math.Abs(float64(x-y))) <= eps }
	return d(a.R, b.R) && d(a.G, b.G) && d(a.B, b.B) && d(a.A, b.A)
}

func TestBilinearAtTexelCenter(t *testing.T) {
	tx := noiseTexture(16)
	s := Sampler{MaxAniso: 16}
	// Sampling exactly at a texel center returns the texel.
	for _, pos := range [][2]int{{0, 0}, {5, 7}, {15, 15}} {
		u := (float32(pos[0]) + 0.5) / 16
		v := (float32(pos[1]) + 0.5) / 16
		got := s.SampleBilinear(tx, 0, u, v)
		want := tx.Texel(0, pos[0], pos[1])
		if !colorsClose(got, want, 1e-5) {
			t.Fatalf("center sample at %v: got %+v want %+v", pos, got, want)
		}
	}
}

func TestBilinearMidpointAveragesNeighbors(t *testing.T) {
	tx := NewTexture(0, "t", 4, 4, LayoutLinear, WrapClamp)
	tx.SetTexel(0, 1, 1, Gray(0))
	tx.SetTexel(0, 2, 1, Gray(1))
	tx.SetTexel(0, 1, 2, Gray(0))
	tx.SetTexel(0, 2, 2, Gray(1))
	s := Sampler{}
	// Horizontal midpoint between texels (1,1) and (2,1).
	got := s.SampleBilinear(tx, 0, 2.0/4, (1.5)/4)
	if math.Abs(float64(got.R-0.5)) > 0.01 {
		t.Fatalf("midpoint = %g want 0.5", got.R)
	}
}

func TestTrilinearBlendsLevels(t *testing.T) {
	tx := NewTexture(0, "t", 8, 8, LayoutLinear, WrapRepeat)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			tx.SetTexel(0, x, y, Gray(1))
		}
	}
	tx.BuildMipmaps()
	// Overwrite level 1 with black to expose the blend.
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			tx.SetTexel(1, x, y, Gray(0))
		}
	}
	s := Sampler{}
	if got := s.SampleTrilinear(tx, 0.5, 0.5, 0); math.Abs(float64(got.R-1)) > 0.01 {
		t.Fatalf("lod 0 = %g want 1", got.R)
	}
	if got := s.SampleTrilinear(tx, 0.5, 0.5, 1); math.Abs(float64(got.R)) > 0.01 {
		t.Fatalf("lod 1 = %g want 0", got.R)
	}
	if got := s.SampleTrilinear(tx, 0.5, 0.5, 0.5); math.Abs(float64(got.R-0.5)) > 0.01 {
		t.Fatalf("lod 0.5 = %g want 0.5", got.R)
	}
}

func TestFootprintIsotropic(t *testing.T) {
	tx := noiseTexture(64)
	g := Gradients{DUDX: 1.0 / 64, DVDY: 1.0 / 64} // one texel per pixel
	f := ComputeFootprint(tx, g, 16)
	if f.N != 1 {
		t.Fatalf("isotropic gradients gave N=%d", f.N)
	}
	if f.Lod > 0.1 {
		t.Fatalf("1:1 mapping gave lod=%g want ~0", f.Lod)
	}
}

func TestFootprintAnisotropyDegree(t *testing.T) {
	tx := noiseTexture(64)
	// 8 texels along x per pixel, 1 along y: 8x anisotropy.
	g := Gradients{DUDX: 8.0 / 64, DVDY: 1.0 / 64}
	f := ComputeFootprint(tx, g, 16)
	if f.N != 8 {
		t.Fatalf("N=%d want 8", f.N)
	}
	if f.Lod > 0.1 {
		t.Fatalf("fine lod should be ~0, got %g", f.Lod)
	}
	// Cap at MaxAniso.
	g = Gradients{DUDX: 40.0 / 64, DVDY: 1.0 / 64}
	f = ComputeFootprint(tx, g, 16)
	if f.N != 16 {
		t.Fatalf("capped N=%d want 16", f.N)
	}
	// Iso LOD covers the major axis.
	if iso := f.IsoLod(); iso < f.Lod {
		t.Fatalf("iso lod %g below fine lod %g", iso, f.Lod)
	}
}

func TestFootprintFetchCounts(t *testing.T) {
	f := Footprint{N: 4}
	if f.TexelFetches() != 32 {
		t.Errorf("4x aniso fetches %d texels, paper says 32", f.TexelFetches())
	}
	if f.ParentFetches() != 8 {
		t.Errorf("parent fetches %d, paper says 8", f.ParentFetches())
	}
}

// TestReorderEquivalence verifies the paper's Eq. 2-3 correctness argument:
// filtering with anisotropic averaging moved FIRST (per parent texel)
// produces the same color as the conventional order, because the weighted
// sums are the same terms reassociated.
func TestReorderEquivalence(t *testing.T) {
	tx := noiseTexture(128)
	s := Sampler{MaxAniso: 16}
	rng := xrand.New(99)
	for i := 0; i < 2000; i++ {
		u := rng.Float32()
		v := rng.Float32()
		n := 1 + rng.Intn(16)
		foot := Footprint{
			Lod:   rng.Range(0, 5),
			N:     n,
			AxisU: rng.Range(-0.2, 0.2),
			AxisV: rng.Range(-0.2, 0.2),
		}
		conventional := s.SampleAniso(tx, u, v, foot)
		reordered := s.SampleAnisoReordered(tx, u, v, foot, nil)
		if !colorsClose(conventional, reordered, 2e-4) {
			t.Fatalf("order mismatch at sample %d (u=%g v=%g N=%d lod=%g):\n conv %+v\n reord %+v",
				i, u, v, foot.N, foot.Lod, conventional, reordered)
		}
	}
}

// TestReorderEquivalenceQuick is the property-based version over arbitrary
// footprints.
func TestReorderEquivalenceQuick(t *testing.T) {
	tx := noiseTexture(64)
	s := Sampler{MaxAniso: 16}
	err := quick.Check(func(uRaw, vRaw uint16, nRaw uint8, lodRaw uint8, axRaw, ayRaw int8) bool {
		u := float32(uRaw) / 65536
		v := float32(vRaw) / 65536
		foot := Footprint{
			Lod:   float32(lodRaw%50) / 10,
			N:     int(nRaw%16) + 1,
			AxisU: float32(axRaw) / 512,
			AxisV: float32(ayRaw) / 512,
		}
		a := s.SampleAniso(tx, u, v, foot)
		b := s.SampleAnisoReordered(tx, u, v, foot, nil)
		return colorsClose(a, b, 2e-4)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAverageChildrenMatchesManual(t *testing.T) {
	tx := noiseTexture(32)
	foot := Footprint{N: 4, AxisU: 8.0 / 32, Lod: 0}
	got := AverageChildren(tx, 0, 10, 10, foot, nil)
	var want Color
	for i := 0; i < 4; i++ {
		dx, dy := foot.ChildOffset(tx, 0, i)
		want = want.Add(tx.Texel(0, 10+dx, 10+dy))
	}
	want = want.Scale(0.25)
	if !colorsClose(got, want, 1e-6) {
		t.Fatalf("got %+v want %+v", got, want)
	}
}

func TestAverageChildrenN1IsPlainTexel(t *testing.T) {
	tx := noiseTexture(16)
	foot := Footprint{N: 1}
	got := AverageChildren(tx, 0, 3, 4, foot, nil)
	if got != tx.Texel(0, 3, 4) {
		t.Fatal("N=1 average should be the plain texel")
	}
}

func TestParentTexelCoordsMatchReorderedSampler(t *testing.T) {
	// Every coordinate the reordered sampler requests must be enumerated
	// by ParentTexelCoords (the A-TFIM path relies on this contract).
	tx := noiseTexture(64)
	s := Sampler{MaxAniso: 16}
	rng := xrand.New(5)
	for i := 0; i < 500; i++ {
		u := rng.Float32()
		v := rng.Float32()
		foot := Footprint{Lod: rng.Range(0, 4), N: 1 + rng.Intn(8), AxisU: rng.Range(-0.1, 0.1)}
		coords := map[ParentCoord]bool{}
		pcs, n := ParentTexelCoords(tx, u, v, foot)
		for _, pc := range pcs[:n] {
			coords[pc] = true
		}
		s.SampleAnisoReordered(tx, u, v, foot,
			func(_ *Texture, level, x, y int, _ Footprint) Color {
				if !coords[ParentCoord{Level: level, X: x, Y: y}] {
					t.Fatalf("sampler requested (%d,%d,%d) not in ParentTexelCoords", level, x, y)
				}
				return Color{A: 1}
			})
	}
}

func TestSampleCountsViaFetch(t *testing.T) {
	tx := noiseTexture(64)
	count := 0
	s := Sampler{MaxAniso: 16, Fetch: func(t *Texture, level, x, y int) Color {
		count++
		return t.Texel(level, x, y)
	}}
	foot := Footprint{N: 4, Lod: 1.5, AxisU: 0.1}
	s.SampleAniso(tx, 0.4, 0.6, foot)
	if count != foot.TexelFetches() {
		t.Fatalf("conventional order fetched %d texels, want %d", count, foot.TexelFetches())
	}
}

func TestIsotropicCheaperThanAniso(t *testing.T) {
	tx := noiseTexture(64)
	count := 0
	s := Sampler{MaxAniso: 16, Fetch: func(t *Texture, level, x, y int) Color {
		count++
		return t.Texel(level, x, y)
	}}
	foot := Footprint{N: 8, Lod: 1.5, AxisU: 0.1}
	s.SampleIsotropic(tx, 0.3, 0.3, foot)
	if count > 8 {
		t.Fatalf("isotropic sampling fetched %d texels, want <= 8", count)
	}
}
