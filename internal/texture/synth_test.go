package texture

import (
	"fmt"
	"testing"
)

// buildMipmapsReference is the per-texel box filter BuildMipmaps must
// reproduce bit for bit under every layout and aspect ratio.
func buildMipmapsReference(t *Texture) {
	texel := func(l *Level, x, y int) Color {
		return Unpack(l.Pix[texelIndex(t.Layout, l.W, l.H, x, y)])
	}
	for lv := 1; lv < len(t.Levels); lv++ {
		src := &t.Levels[lv-1]
		dst := &t.Levels[lv]
		for y := 0; y < dst.H; y++ {
			for x := 0; x < dst.W; x++ {
				x0, y0 := x*2, y*2
				x1 := minInt(x0+1, src.W-1)
				y1 := minInt(y0+1, src.H-1)
				c := texel(src, x0, y0).
					Add(texel(src, x1, y0)).
					Add(texel(src, x0, y1)).
					Add(texel(src, x1, y1)).
					Scale(0.25)
				dst.Pix[texelIndex(t.Layout, dst.W, dst.H, x, y)] = Pack(c)
			}
		}
	}
}

func TestBuildMipmapsMatchesReference(t *testing.T) {
	cases := []struct {
		w, h   int
		layout Layout
	}{
		{64, 64, LayoutMorton},
		{64, 64, LayoutLinear},
		{64, 32, LayoutMorton},
		{32, 64, LayoutMorton},
		{64, 32, LayoutLinear},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%dx%d-%s", c.w, c.h, c.layout)
		fast := NewTexture(0, name, c.w, c.h, c.layout, WrapRepeat)
		ref := NewTexture(0, name, c.w, c.h, c.layout, WrapRepeat)
		for i := range fast.Levels[0].Pix {
			// Any word is a valid texel; a multiplicative hash exercises
			// every channel and the rounding in Pack.
			w := uint32(i) * 0x9e3779b9
			fast.Levels[0].Pix[i] = w
			ref.Levels[0].Pix[i] = w
		}
		fast.BuildMipmaps()
		buildMipmapsReference(ref)
		for lv := range ref.Levels {
			for i, want := range ref.Levels[lv].Pix {
				if got := fast.Levels[lv].Pix[i]; got != want {
					t.Fatalf("%s level %d texel %d: %#08x, want %#08x", name, lv, i, got, want)
				}
			}
		}
	}
}

func BenchmarkSynthesize(b *testing.B) {
	for k := SynthKind(0); k < numSynthKinds; k++ {
		b.Run(k.String(), func(b *testing.B) {
			prim, sec := DefaultPalette(int(k))
			spec := SynthSpec{Kind: k, Seed: 7, Size: 512, Primary: prim, Secondary: sec, Scale: 8}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Synthesize(0, spec, LayoutMorton)
			}
		})
	}
}

func BenchmarkBuildMipmaps(b *testing.B) {
	prim, sec := DefaultPalette(0)
	tx := Synthesize(0, SynthSpec{Kind: SynthNoise, Seed: 7, Size: 1024, Primary: prim, Secondary: sec, Scale: 8}, LayoutMorton)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.BuildMipmaps()
	}
}
