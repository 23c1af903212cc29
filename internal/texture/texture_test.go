package texture

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	err := quick.Check(func(word uint32) bool {
		return Pack(Unpack(word)) == word
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPackClamps(t *testing.T) {
	c := Color{R: 2, G: -1, B: 0.5, A: 1}
	p := Unpack(Pack(c))
	if p.R != 1 || p.G != 0 || p.A != 1 {
		t.Fatalf("clamping wrong: %+v", p)
	}
	if math.Abs(float64(p.B-0.5)) > 1.0/255 {
		t.Fatalf("mid value drifted: %g", p.B)
	}
}

func TestColorArithmetic(t *testing.T) {
	a := Color{R: 0.25, G: 0.5, B: 0.75, A: 1}
	if got := a.Scale(2).R; got != 0.5 {
		t.Errorf("scale %g", got)
	}
	if got := a.Add(a).G; got != 1.0 {
		t.Errorf("add %g", got)
	}
	if got := a.Mul(Color{R: 0.5, G: 0.5, B: 0.5, A: 1}).B; got != 0.375 {
		t.Errorf("mul %g", got)
	}
	if LerpColor(a, Color{}, 1) != (Color{}) {
		t.Error("lerp endpoint wrong")
	}
}

func TestMortonBijective(t *testing.T) {
	err := quick.Check(func(x, y uint16) bool {
		m := MortonEncode(uint32(x), uint32(y))
		dx, dy := MortonDecode(m)
		return dx == uint32(x) && dy == uint32(y)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMortonLocality(t *testing.T) {
	// A 4x4 texel block must map into one 16-texel (64-byte) span.
	base := MortonEncode(4, 8) // aligned 4x4 block corner
	for dy := uint32(0); dy < 4; dy++ {
		for dx := uint32(0); dx < 4; dx++ {
			m := MortonEncode(4+dx, 8+dy)
			if m/16 != base/16 {
				t.Fatalf("texel (%d,%d) maps outside its 4x4 block", 4+dx, 8+dy)
			}
		}
	}
}

func TestTexelIndexInverse(t *testing.T) {
	for _, layout := range []Layout{LayoutMorton, LayoutLinear} {
		for _, dim := range [][2]int{{64, 64}, {128, 32}, {8, 8}, {2, 2}, {1, 1}} {
			w, h := dim[0], dim[1]
			seen := make(map[int]bool, w*h)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					idx := texelIndex(layout, w, h, x, y)
					if idx < 0 || idx >= w*h {
						t.Fatalf("%v %dx%d (%d,%d): index %d out of range", layout, w, h, x, y, idx)
					}
					if seen[idx] {
						t.Fatalf("%v %dx%d: index %d collides", layout, w, h, idx)
					}
					seen[idx] = true
					ix, iy := inverseTexelIndex(layout, w, h, idx)
					if ix != x || iy != y {
						t.Fatalf("%v %dx%d: inverse(%d) = (%d,%d) want (%d,%d)", layout, w, h, idx, ix, iy, x, y)
					}
				}
			}
		}
	}
}

func TestNewTextureMipChain(t *testing.T) {
	tx := NewTexture(0, "t", 64, 32, LayoutMorton, WrapRepeat)
	if tx.NumLevels() != 7 { // 64x32 ... 1x1
		t.Fatalf("levels=%d want 7", tx.NumLevels())
	}
	last := tx.Levels[tx.NumLevels()-1]
	if last.W != 1 || last.H != 1 {
		t.Fatalf("last level %dx%d", last.W, last.H)
	}
}

func TestNewTextureRejectsNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-pow2 size")
		}
	}()
	NewTexture(0, "bad", 100, 64, LayoutMorton, WrapRepeat)
}

func TestWrapModes(t *testing.T) {
	tx := NewTexture(0, "t", 4, 4, LayoutLinear, WrapRepeat)
	tx.SetTexel(0, 0, 0, Gray(1))
	tx.SetTexel(0, 3, 3, Gray(0.5))
	// Repeat: -1 wraps to 3.
	if got := tx.Texel(0, -1, -1); math.Abs(float64(got.R-0.5)) > 0.01 {
		t.Errorf("repeat wrap got %g", got.R)
	}
	if got := tx.Texel(0, 4, 4); math.Abs(float64(got.R-1)) > 0.01 {
		t.Errorf("repeat wrap (4,4) got %g", got.R)
	}
	tc := NewTexture(1, "c", 4, 4, LayoutLinear, WrapClamp)
	tc.SetTexel(0, 0, 0, Gray(1))
	if got := tc.Texel(0, -5, -5); math.Abs(float64(got.R-1)) > 0.01 {
		t.Errorf("clamp wrap got %g", got.R)
	}
}

func TestBuildMipmapsBoxFilter(t *testing.T) {
	tx := NewTexture(0, "t", 2, 2, LayoutLinear, WrapRepeat)
	tx.SetTexel(0, 0, 0, Gray(1))
	tx.SetTexel(0, 1, 0, Gray(0))
	tx.SetTexel(0, 0, 1, Gray(1))
	tx.SetTexel(0, 1, 1, Gray(0))
	tx.BuildMipmaps()
	avg := tx.Texel(1, 0, 0)
	if math.Abs(float64(avg.R-0.5)) > 0.01 {
		t.Fatalf("1x1 mip = %g want 0.5", avg.R)
	}
}

func TestAssignAddressesAlignment(t *testing.T) {
	tx := NewTexture(0, "t", 16, 16, LayoutMorton, WrapRepeat)
	end := tx.AssignAddresses(100)
	for i, l := range tx.Levels {
		if l.Addr%4096 != 0 {
			t.Errorf("level %d addr %#x not 4K aligned", i, l.Addr)
		}
		if i > 0 && l.Addr <= tx.Levels[i-1].Addr {
			t.Errorf("level %d addr not increasing", i)
		}
	}
	if end <= tx.Levels[len(tx.Levels)-1].Addr {
		t.Error("end address not past last level")
	}
}

func TestTexelAddrDistinctWithinLevel(t *testing.T) {
	tx := NewTexture(0, "t", 8, 8, LayoutMorton, WrapRepeat)
	tx.AssignAddresses(0)
	seen := map[uint64]bool{}
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			a := tx.TexelAddr(0, x, y)
			if seen[a] {
				t.Fatalf("texel (%d,%d) address collides", x, y)
			}
			seen[a] = true
		}
	}
}

func TestLineTexelsCoverWholeLine(t *testing.T) {
	tx := NewTexture(0, "t", 64, 64, LayoutMorton, WrapRepeat)
	tx.AssignAddresses(0)
	var buf [LineTexelsPerLine]LineTexel
	lineAddr, n := tx.LineTexels(0, 13, 27, &buf)
	if n != 16 {
		t.Fatalf("line holds %d texels, want 16", n)
	}
	texels := buf[:n]
	offsets := map[int]bool{}
	for _, lt := range texels {
		a := tx.TexelAddr(0, lt.X, lt.Y)
		if a != lineAddr+uint64(lt.Off) {
			t.Fatalf("texel (%d,%d) addr %#x != line %#x + %d", lt.X, lt.Y, a, lineAddr, lt.Off)
		}
		offsets[lt.Off] = true
	}
	if len(offsets) != 16 {
		t.Fatalf("offsets not unique: %d", len(offsets))
	}
	// The requested texel must be in the line.
	found := false
	for _, lt := range texels {
		if lt.X == 13 && lt.Y == 27 {
			found = true
		}
	}
	if !found {
		t.Fatal("requested texel not in its own line")
	}
}

func TestLineTexelsTinyLevel(t *testing.T) {
	tx := NewTexture(0, "t", 2, 2, LayoutMorton, WrapRepeat)
	tx.AssignAddresses(0)
	var buf [LineTexelsPerLine]LineTexel
	if _, n := tx.LineTexels(0, 0, 0, &buf); n != 4 {
		t.Fatalf("2x2 level line holds %d texels, want 4", n)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	spec := SynthSpec{Kind: SynthBrick, Seed: 7, Size: 32, Primary: RGB(0.5, 0.3, 0.2), Secondary: Gray(0.3), Scale: 4}
	a := Synthesize(0, spec, LayoutMorton)
	b := Synthesize(0, spec, LayoutMorton)
	for i := range a.Levels[0].Pix {
		if a.Levels[0].Pix[i] != b.Levels[0].Pix[i] {
			t.Fatal("synthesis not deterministic")
		}
	}
}

func TestSynthesizeAllKindsInRange(t *testing.T) {
	for k := SynthKind(0); k < numSynthKinds; k++ {
		spec := SynthSpec{Kind: k, Seed: 3, Size: 16, Primary: RGB(0.6, 0.5, 0.4), Secondary: Gray(0.2), Scale: 4}
		tx := Synthesize(0, spec, LayoutLinear)
		if tx.Name != k.String() {
			t.Errorf("kind %v name %q", k, tx.Name)
		}
		if len(tx.Levels[0].Pix) != 256 {
			t.Errorf("kind %v: wrong pixel count", k)
		}
	}
}
