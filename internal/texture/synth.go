package texture

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/xrand"
)

// SynthKind names a procedural texture family. The workloads compose these
// to approximate each game's art style (brick corridors, noisy concrete,
// marble floors, metal panels...).
type SynthKind uint8

const (
	// SynthChecker is a two-tone checkerboard.
	SynthChecker SynthKind = iota
	// SynthBrick is a brick-and-mortar pattern.
	SynthBrick
	// SynthNoise is fBm value noise.
	SynthNoise
	// SynthMarble is sine-warped noise (marble veins).
	SynthMarble
	// SynthMetal is brushed-metal banding with speckle.
	SynthMetal
	// SynthWood is concentric-ring wood grain.
	SynthWood
	// SynthGrate is a regular grille/grate pattern with high frequency
	// detail (the worst case for aliasing, i.e. where anisotropic filtering
	// matters most).
	SynthGrate
	numSynthKinds
)

// String returns the family name.
func (k SynthKind) String() string {
	switch k {
	case SynthChecker:
		return "checker"
	case SynthBrick:
		return "brick"
	case SynthNoise:
		return "noise"
	case SynthMarble:
		return "marble"
	case SynthMetal:
		return "metal"
	case SynthWood:
		return "wood"
	case SynthGrate:
		return "grate"
	default:
		return "synth"
	}
}

// SynthSpec describes one procedural texture.
type SynthSpec struct {
	Kind SynthKind
	// Seed makes each instance unique and deterministic.
	Seed uint64
	// Size is the (square) base-level dimension; must be a power of two.
	Size int
	// Primary and Secondary are the two dominant colors.
	Primary, Secondary Color
	// Scale is the feature frequency multiplier.
	Scale float32
}

// Synthesize builds the texture (base level plus mipmaps) for spec.
func Synthesize(id int, spec SynthSpec, layout Layout) *Texture {
	t := NewTexture(id, spec.Kind.String(), spec.Size, spec.Size, layout, WrapRepeat)
	n := spec.Size
	scale := spec.Scale
	if scale <= 0 {
		scale = 8
	}
	// Texel (x, y) of the square base level lands at cols[x] + rows[y]:
	// part1By1(x) | part1By1(y)<<1 under Morton order, y*n + x under linear.
	cols, rows := make([]int, n), make([]int, n)
	for i := range cols {
		if layout == LayoutLinear {
			cols[i], rows[i] = i, i*n
		} else {
			m := int(part1By1(uint32(i)))
			cols[i], rows[i] = m, m<<1
		}
	}
	pix := t.Levels[0].Pix
	for y := 0; y < n; y++ {
		v := float32(y) / float32(n)
		for x := 0; x < n; x++ {
			u := float32(x) / float32(n)
			pix[rows[y]+cols[x]] = Pack(synthTexel(spec, u, v, scale))
		}
	}
	t.BuildMipmaps()
	return t
}

// SynthesizeAll builds the texture for every spec, texture i with ID i, on
// up to GOMAXPROCS goroutines. Each texture depends only on its own spec,
// so the result is the same as synthesizing them one after another.
func SynthesizeAll(specs []SynthSpec, layout Layout) []*Texture {
	out := make([]*Texture, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(specs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				out[i] = Synthesize(i, specs[i], layout)
			}
		}()
	}
	wg.Wait()
	return out
}

func synthTexel(spec SynthSpec, u, v, scale float32) Color {
	switch spec.Kind {
	case SynthChecker:
		iu := int(u * scale)
		iv := int(v * scale)
		if (iu+iv)%2 == 0 {
			return spec.Primary
		}
		return spec.Secondary

	case SynthBrick:
		// Bricks of 2:1 aspect with thin mortar lines; odd rows offset.
		bu := u * scale
		bv := v * scale * 2
		row := int(bv)
		if row%2 == 1 {
			bu += 0.5
		}
		fu := bu - float32(int(bu))
		fv := bv - float32(int(bv))
		const mortar = 0.06
		if fu < mortar || fv < mortar*2 {
			return spec.Secondary
		}
		// Per-brick tonal variation.
		shade := 0.85 + 0.3*xrand.Hash2D(spec.Seed, int32(bu), int32(bv)+int32(row)*131)
		return spec.Primary.Scale(shade)

	case SynthNoise:
		n := xrand.FBM2D(spec.Seed, u*scale, v*scale, 5)
		return LerpColor(spec.Secondary, spec.Primary, n)

	case SynthMarble:
		n := xrand.FBM2D(spec.Seed, u*scale, v*scale, 5)
		vein := float32(0.5 + 0.5*math.Sin(float64(u*scale*2+n*6)))
		vein = vein * vein
		return LerpColor(spec.Primary, spec.Secondary, vein)

	case SynthMetal:
		band := xrand.FBM2D(spec.Seed, u*scale*6, v*2, 3)
		speck := xrand.Hash2D(spec.Seed^0xbeef, int32(u*1024), int32(v*1024))
		base := LerpColor(spec.Primary, spec.Secondary, band*0.6)
		if speck > 0.985 {
			return Gray(0.95)
		}
		return base

	case SynthWood:
		cx := u - 0.5
		cy := v - 0.5
		r := float32(math.Sqrt(float64(cx*cx+cy*cy))) * scale
		n := xrand.FBM2D(spec.Seed, u*scale, v*scale, 3)
		ring := float32(0.5 + 0.5*math.Sin(float64(r*6+n*3)))
		return LerpColor(spec.Primary, spec.Secondary, ring)

	case SynthGrate:
		gu := u * scale * 4
		gv := v * scale * 4
		fu := gu - float32(int(gu))
		fv := gv - float32(int(gv))
		if fu < 0.35 || fv < 0.35 {
			return spec.Secondary
		}
		return spec.Primary

	default:
		return spec.Primary
	}
}

// DefaultPalette returns deterministic primary/secondary colors for a
// texture index, cycling through a muted game-like palette.
func DefaultPalette(i int) (primary, secondary Color) {
	palette := [][2]Color{
		{RGB(0.55, 0.32, 0.22), RGB(0.35, 0.33, 0.31)}, // brick red / mortar
		{RGB(0.42, 0.42, 0.45), RGB(0.22, 0.22, 0.25)}, // concrete
		{RGB(0.65, 0.60, 0.50), RGB(0.30, 0.26, 0.22)}, // sand / dirt
		{RGB(0.35, 0.42, 0.32), RGB(0.16, 0.20, 0.15)}, // mossy green
		{RGB(0.50, 0.48, 0.52), RGB(0.75, 0.74, 0.78)}, // steel
		{RGB(0.48, 0.34, 0.20), RGB(0.28, 0.18, 0.10)}, // wood
		{RGB(0.60, 0.58, 0.55), RGB(0.12, 0.12, 0.13)}, // tile / grout
		{RGB(0.38, 0.30, 0.42), RGB(0.18, 0.14, 0.22)}, // purple shade
	}
	p := palette[i%len(palette)]
	return p[0], p[1]
}
