package texture

import (
	"fmt"
	"math"
)

// WrapMode selects texture-coordinate wrapping behaviour.
type WrapMode uint8

const (
	// WrapRepeat tiles the texture (GL_REPEAT).
	WrapRepeat WrapMode = iota
	// WrapClamp clamps coordinates to the edge (GL_CLAMP_TO_EDGE).
	WrapClamp
)

// Level is one mipmap level.
type Level struct {
	// W and H are the level dimensions in texels (powers of two).
	W, H int
	// Pix holds the texels in layout order (see Layout).
	Pix []uint32
	// Addr is the level's base byte address in the global address space.
	Addr uint64
}

// Texture is a 2D texture with a full mipmap chain down to 1x1.
type Texture struct {
	// ID is the texture's identity within its scene.
	ID int
	// Name describes the procedural source ("brick", "noise", ...).
	Name string
	// Levels is the mip chain; Levels[0] is the base image.
	Levels []Level
	// Layout is the texel address layout.
	Layout Layout
	// Wrap is the coordinate wrap mode.
	Wrap WrapMode
	// Compressed reports whether the texture uses fixed-rate block
	// compression (see Compress).
	Compressed bool
	compressed []compressedLevel
}

// NewTexture allocates a texture of the given power-of-two size with an
// uninitialized base level and a full mip chain (call BuildMipmaps after
// filling level 0). It panics on non-power-of-two sizes.
func NewTexture(id int, name string, w, h int, layout Layout, wrap WrapMode) *Texture {
	if w <= 0 || h <= 0 || w&(w-1) != 0 || h&(h-1) != 0 {
		panic(fmt.Sprintf("texture %q: dimensions %dx%d must be powers of two", name, w, h))
	}
	t := &Texture{ID: id, Name: name, Layout: layout, Wrap: wrap}
	for w > 0 && h > 0 {
		t.Levels = append(t.Levels, Level{W: w, H: h, Pix: make([]uint32, w*h)})
		if w == 1 && h == 1 {
			break
		}
		w = maxInt(1, w/2)
		h = maxInt(1, h/2)
	}
	return t
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// NumLevels returns the mip chain length.
func (t *Texture) NumLevels() int { return len(t.Levels) }

// SizeBytes returns the total storage of all levels (compressed footprint
// when block compression is enabled).
func (t *Texture) SizeBytes() int {
	s := 0
	for i, l := range t.Levels {
		if t.Compressed {
			s += t.compressedLevelBytes(i)
		} else {
			s += len(l.Pix) * 4
		}
	}
	return s
}

// AssignAddresses lays the mip chain out consecutively starting at base
// (4 KiB aligned per level) and returns the first free address after the
// texture.
func (t *Texture) AssignAddresses(base uint64) uint64 {
	const align = 4096
	for i := range t.Levels {
		base = (base + align - 1) &^ uint64(align-1)
		t.Levels[i].Addr = base
		if t.Compressed {
			base += uint64(t.compressedLevelBytes(i))
		} else {
			base += uint64(len(t.Levels[i].Pix) * 4)
		}
	}
	return base
}

// wrapCoord maps a possibly out-of-range texel coordinate into [0, n).
func wrapCoord(mode WrapMode, v, n int) int {
	if n <= 1 {
		return 0
	}
	switch mode {
	case WrapClamp:
		if v < 0 {
			return 0
		}
		if v >= n {
			return n - 1
		}
		return v
	default: // repeat
		v %= n
		if v < 0 {
			v += n
		}
		return v
	}
}

// SetTexel stores a color at (x, y) of level lv (coordinates must be in
// range; used by the synthesizers).
func (t *Texture) SetTexel(lv, x, y int, c Color) {
	l := &t.Levels[lv]
	l.Pix[texelIndex(t.Layout, l.W, l.H, x, y)] = Pack(c)
}

// TexelWord returns the packed RGBA8 word at (x, y) of level lv, applying
// the wrap mode. Level indices are clamped to the chain.
func (t *Texture) TexelWord(lv, x, y int) uint32 {
	if lv < 0 {
		lv = 0
	}
	if lv >= len(t.Levels) {
		lv = len(t.Levels) - 1
	}
	l := &t.Levels[lv]
	x = wrapCoord(t.Wrap, x, l.W)
	y = wrapCoord(t.Wrap, y, l.H)
	return l.Pix[texelIndex(t.Layout, l.W, l.H, x, y)]
}

// Texel returns the color at (x, y) of level lv with wrapping. Compressed
// textures decode on the fly (lossy).
func (t *Texture) Texel(lv, x, y int) Color {
	if t.Compressed {
		lv = t.ClampLevel(lv)
		l := &t.Levels[lv]
		return t.compressedTexel(lv, wrapCoord(t.Wrap, x, l.W), wrapCoord(t.Wrap, y, l.H))
	}
	return Unpack(t.TexelWord(lv, x, y))
}

// TexelAddr returns the byte address of texel (x, y) at level lv, applying
// the wrap mode so out-of-range coordinates map to real storage. For
// compressed textures this is the containing block's address.
func (t *Texture) TexelAddr(lv, x, y int) uint64 {
	lv = t.ClampLevel(lv)
	l := &t.Levels[lv]
	x = wrapCoord(t.Wrap, x, l.W)
	y = wrapCoord(t.Wrap, y, l.H)
	if t.Compressed {
		return t.compressedTexelAddr(lv, x, y)
	}
	return l.Addr + uint64(texelIndex(t.Layout, l.W, l.H, x, y))*4
}

// LineTexel identifies one texel within a cache line: its coordinates and
// its byte offset from the line base.
type LineTexel struct {
	X, Y int
	Off  int
}

// LineTexelsPerLine is the number of texels in one 64-byte memory line.
const LineTexelsPerLine = 16

// LineTexels enumerates the texels stored in the 64-byte memory line that
// contains texel (x, y) of level lv into the caller-owned out, and returns
// the line's base address and how many entries of out it filled (fewer
// than 16 only for levels smaller than a line). Under the Morton layout a
// line is a 4x4 texel block — this is the granularity at which the A-TFIM
// composing stage groups parent texels ("the same format as a normal
// bilinear fetch", Section V-D).
func (t *Texture) LineTexels(lv, x, y int, out *[LineTexelsPerLine]LineTexel) (lineAddr uint64, n int) {
	lv = t.ClampLevel(lv)
	l := &t.Levels[lv]
	x = wrapCoord(t.Wrap, x, l.W)
	y = wrapCoord(t.Wrap, y, l.H)
	idx := texelIndex(t.Layout, l.W, l.H, x, y)
	base := idx &^ (LineTexelsPerLine - 1)
	lineAddr = l.Addr + uint64(base)*4
	n = min(LineTexelsPerLine, len(l.Pix)-base)
	for k := 0; k < n; k++ {
		tx, ty := inverseTexelIndex(t.Layout, l.W, l.H, base+k)
		out[k] = LineTexel{X: tx, Y: ty, Off: k * 4}
	}
	return lineAddr, n
}

// ClampLevel clamps a mip level index into the chain.
func (t *Texture) ClampLevel(lv int) int {
	if lv < 0 {
		return 0
	}
	if lv >= len(t.Levels) {
		return len(t.Levels) - 1
	}
	return lv
}

// BuildMipmaps regenerates levels 1..n from level 0 with a 2x2 box filter
// (the standard mipmap construction the paper's footnote 1 describes).
// Every path sums the parent block in the order (x0,y0), (x1,y0), (x0,y1),
// (x1,y1), so all layouts filter bit-identically.
func (t *Texture) BuildMipmaps() {
	for lv := 1; lv < len(t.Levels); lv++ {
		src := &t.Levels[lv-1]
		dst := &t.Levels[lv]
		switch {
		case t.Layout == LayoutMorton && src.W == src.H:
			// The parent block of Morton texel m is src[4m..4m+3], already
			// in summation order.
			for m := range dst.Pix {
				p := src.Pix[4*m : 4*m+4]
				dst.Pix[m] = box2x2(p[0], p[1], p[2], p[3])
			}
		case t.Layout == LayoutLinear:
			for y := 0; y < dst.H; y++ {
				row0 := src.Pix[2*y*src.W:]
				row1 := src.Pix[minInt(2*y+1, src.H-1)*src.W:]
				out := dst.Pix[y*dst.W : (y+1)*dst.W]
				for x := range out {
					x0 := 2 * x
					x1 := minInt(x0+1, src.W-1)
					out[x] = box2x2(row0[x0], row0[x1], row1[x0], row1[x1])
				}
			}
		default:
			// Non-square Morton levels tile the longer axis; NewTexture
			// allows them, Synthesize never makes them.
			for y := 0; y < dst.H; y++ {
				for x := 0; x < dst.W; x++ {
					x0, y0 := x*2, y*2
					x1 := minInt(x0+1, src.W-1)
					y1 := minInt(y0+1, src.H-1)
					dst.Pix[texelIndex(t.Layout, dst.W, dst.H, x, y)] = box2x2(
						src.Pix[texelIndex(t.Layout, src.W, src.H, x0, y0)],
						src.Pix[texelIndex(t.Layout, src.W, src.H, x1, y0)],
						src.Pix[texelIndex(t.Layout, src.W, src.H, x0, y1)],
						src.Pix[texelIndex(t.Layout, src.W, src.H, x1, y1)])
				}
			}
		}
	}
}

// box2x2 averages four packed texels, summing them in argument order.
func box2x2(a, b, c, d uint32) uint32 {
	return Pack(Unpack(a).Add(Unpack(b)).Add(Unpack(c)).Add(Unpack(d)).Scale(0.25))
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Log2 returns log2(v) for float32 inputs (used for LOD computation).
func Log2(v float32) float32 {
	return float32(math.Log2(float64(v)))
}
