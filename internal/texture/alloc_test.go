package texture

import "testing"

// The A-TFIM path addresses 8 parent texels and, on a miss, whole memory
// lines for every texture request; neither may allocate.

func TestParentTexelCoordsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tx := noiseTexture(64)
	foot := Footprint{Lod: 1.5, N: 4, AxisU: 0.05}
	var n int
	if allocs := testing.AllocsPerRun(100, func() {
		_, n = ParentTexelCoords(tx, 0.37, 0.61, foot)
	}); allocs != 0 {
		t.Fatalf("ParentTexelCoords allocates %.0f times per call", allocs)
	}
	if n != 8 {
		t.Fatalf("trilinear footprint gave %d parents, want 8", n)
	}
}

func TestLineTexelsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tx := noiseTexture(64)
	tx.AssignAddresses(0)
	var buf [LineTexelsPerLine]LineTexel
	var n int
	if allocs := testing.AllocsPerRun(100, func() {
		_, n = tx.LineTexels(1, 13, 27, &buf)
	}); allocs != 0 {
		t.Fatalf("LineTexels allocates %.0f times per call", allocs)
	}
	if n != LineTexelsPerLine {
		t.Fatalf("line holds %d texels, want %d", n, LineTexelsPerLine)
	}
}

func BenchmarkParentTexelCoords(b *testing.B) {
	tx := noiseTexture(256)
	foot := Footprint{Lod: 1.5, N: 4, AxisU: 0.05}
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		u := float32(i%997) / 997
		_, k := ParentTexelCoords(tx, u, 1-u, foot)
		n += k
	}
	if n == 0 {
		b.Fatal("no parents enumerated")
	}
}

func BenchmarkLineTexels(b *testing.B) {
	tx := noiseTexture(256)
	tx.AssignAddresses(0)
	var buf [LineTexelsPerLine]LineTexel
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		_, k := tx.LineTexels(i%3, i*7, i*13, &buf)
		n += k
	}
	if n == 0 {
		b.Fatal("no texels enumerated")
	}
}
