// Package scene defines the renderer's input model — meshes of textured
// triangles plus a camera — and the procedural generators that synthesize
// game-like scenes for the five workloads of Table II. Real game traces are
// proprietary (ATTILA's captures), so each generator builds a deterministic
// scene whose salient statistics (triangle count, texture inventory,
// distribution of oblique surfaces, overdraw) match the character of its
// namesake; see DESIGN.md for the substitution argument.
package scene

import (
	"math"

	"repro/internal/texture"
	"repro/internal/vmath"
	"repro/internal/xrand"
)

// VertexIn is a pre-transform (object-space) vertex.
type VertexIn struct {
	Pos    vmath.Vec3
	UV     vmath.Vec2
	Color  vmath.Vec4
	Normal vmath.Vec3
}

// Triangle references three vertices and a texture.
type Triangle struct {
	V     [3]int
	TexID int
}

// Mesh is an indexed triangle list.
type Mesh struct {
	Vertices  []VertexIn
	Triangles []Triangle
}

// Camera positions the viewer for one frame.
type Camera struct {
	Eye    vmath.Vec3
	Center vmath.Vec3
	Up     vmath.Vec3
	FovY   float32
	Near   float32
	Far    float32
}

// ViewProj returns the combined view-projection matrix for the target
// aspect ratio.
func (c Camera) ViewProj(aspect float32) vmath.Mat4 {
	proj := vmath.Perspective(c.FovY, aspect, c.Near, c.Far)
	view := vmath.LookAt(c.Eye, c.Center, c.Up)
	return proj.Mul(view)
}

// Scene is a complete renderable world.
type Scene struct {
	Name     string
	Mesh     Mesh
	Textures []*texture.Texture
	// TextureSpecs are the procedural recipes the textures were built
	// from (kept so traces can store recipes instead of pixels).
	TextureSpecs []texture.SynthSpec
	// Cameras holds one camera per frame of the capture.
	Cameras []Camera
	// Ambient is the fragment program's ambient light term.
	Ambient float32
	// LightDir is the normalized directional light.
	LightDir vmath.Vec3
}

// NumTriangles returns the triangle count.
func (s *Scene) NumTriangles() int { return len(s.Mesh.Triangles) }

// TextureBytes returns the total texture storage.
func (s *Scene) TextureBytes() int {
	n := 0
	for _, t := range s.Textures {
		n += t.SizeBytes()
	}
	return n
}

// AssignTextureAddresses lays all textures out in the texture region and
// returns the total extent.
func (s *Scene) AssignTextureAddresses(base uint64) uint64 {
	for _, t := range s.Textures {
		base = t.AssignAddresses(base)
	}
	return base
}

// Builder incrementally constructs a mesh.
type Builder struct {
	mesh Mesh
}

// AddQuad appends two triangles forming the quad (a, b, c, d) in
// counter-clockwise order with the given texture, UV scale and color.
// The normal is computed from the winding.
func (b *Builder) AddQuad(a, bb, c, d vmath.Vec3, texID int, uvScale float32, color vmath.Vec4) {
	n := bb.Sub(a).Cross(d.Sub(a)).Normalize()
	base := len(b.mesh.Vertices)
	uv := [4]vmath.Vec2{
		{X: 0, Y: 0},
		{X: uvScale, Y: 0},
		{X: uvScale, Y: uvScale},
		{X: 0, Y: uvScale},
	}
	for i, p := range [4]vmath.Vec3{a, bb, c, d} {
		b.mesh.Vertices = append(b.mesh.Vertices, VertexIn{
			Pos: p, UV: uv[i], Color: color, Normal: n,
		})
	}
	b.mesh.Triangles = append(b.mesh.Triangles,
		Triangle{V: [3]int{base, base + 1, base + 2}, TexID: texID},
		Triangle{V: [3]int{base, base + 2, base + 3}, TexID: texID},
	)
}

// AddBox appends the six faces of an axis-aligned box.
func (b *Builder) AddBox(lo, hi vmath.Vec3, texID int, uvScale float32, color vmath.Vec4) {
	l, h := lo, hi
	// Four side walls, floor and ceiling; windings chosen so normals face
	// outward.
	b.AddQuad(vmath.Vec3{X: l.X, Y: l.Y, Z: l.Z}, vmath.Vec3{X: h.X, Y: l.Y, Z: l.Z},
		vmath.Vec3{X: h.X, Y: h.Y, Z: l.Z}, vmath.Vec3{X: l.X, Y: h.Y, Z: l.Z}, texID, uvScale, color)
	b.AddQuad(vmath.Vec3{X: h.X, Y: l.Y, Z: h.Z}, vmath.Vec3{X: l.X, Y: l.Y, Z: h.Z},
		vmath.Vec3{X: l.X, Y: h.Y, Z: h.Z}, vmath.Vec3{X: h.X, Y: h.Y, Z: h.Z}, texID, uvScale, color)
	b.AddQuad(vmath.Vec3{X: l.X, Y: l.Y, Z: h.Z}, vmath.Vec3{X: l.X, Y: l.Y, Z: l.Z},
		vmath.Vec3{X: l.X, Y: h.Y, Z: l.Z}, vmath.Vec3{X: l.X, Y: h.Y, Z: h.Z}, texID, uvScale, color)
	b.AddQuad(vmath.Vec3{X: h.X, Y: l.Y, Z: l.Z}, vmath.Vec3{X: h.X, Y: l.Y, Z: h.Z},
		vmath.Vec3{X: h.X, Y: h.Y, Z: h.Z}, vmath.Vec3{X: h.X, Y: h.Y, Z: l.Z}, texID, uvScale, color)
	b.AddQuad(vmath.Vec3{X: l.X, Y: l.Y, Z: h.Z}, vmath.Vec3{X: h.X, Y: l.Y, Z: h.Z},
		vmath.Vec3{X: h.X, Y: l.Y, Z: l.Z}, vmath.Vec3{X: l.X, Y: l.Y, Z: l.Z}, texID, uvScale, color)
	b.AddQuad(vmath.Vec3{X: l.X, Y: h.Y, Z: l.Z}, vmath.Vec3{X: h.X, Y: h.Y, Z: l.Z},
		vmath.Vec3{X: h.X, Y: h.Y, Z: h.Z}, vmath.Vec3{X: l.X, Y: h.Y, Z: h.Z}, texID, uvScale, color)
}

// Mesh returns the built mesh.
func (b *Builder) Mesh() Mesh { return b.mesh }

// Spec parameterizes a procedural scene generator.
type Spec struct {
	// Name labels the scene.
	Name string
	// Seed makes generation deterministic.
	Seed uint64
	// CorridorSegments controls corridor length (and triangle count).
	CorridorSegments int
	// Props is the number of boxes/pillars scattered through the world.
	Props int
	// TextureCount and TextureSize shape the texture inventory.
	TextureCount int
	TextureSize  int
	// Frames is the number of camera frames in the capture.
	Frames int
	// ObliqueBias (0..1) biases the camera pitch downward so floors and
	// walls are viewed at grazing angles (more anisotropy demand).
	ObliqueBias float32
	// Ambient lighting term.
	Ambient float32
	// Layout selects the texel layout for all textures.
	Layout texture.Layout
	// Kinds restricts the synthesizer families used (empty = all).
	Kinds []texture.SynthKind
}

// Generate builds a deterministic corridor-and-props world: a long textured
// corridor (large floor/wall/ceiling quads seen at oblique angles — the
// anisotropic-heavy geometry of Fig. 8's "sunken stone" example) populated
// with textured boxes and pillars, plus a camera flythrough.
func Generate(spec Spec) *Scene {
	rng := xrand.New(spec.Seed)
	s := &Scene{
		Name:     spec.Name,
		Ambient:  spec.Ambient,
		LightDir: vmath.Vec3{X: 0.3, Y: 0.8, Z: 0.5}.Normalize(),
	}
	if s.Ambient == 0 {
		s.Ambient = 0.35
	}

	// Texture inventory.
	kinds := spec.Kinds
	if len(kinds) == 0 {
		kinds = []texture.SynthKind{
			texture.SynthBrick, texture.SynthNoise, texture.SynthChecker,
			texture.SynthMarble, texture.SynthMetal, texture.SynthWood,
			texture.SynthGrate,
		}
	}
	for i := 0; i < spec.TextureCount; i++ {
		prim, sec := texture.DefaultPalette(i)
		tspec := texture.SynthSpec{
			Kind:      kinds[i%len(kinds)],
			Seed:      spec.Seed ^ uint64(i)*0x9e3779b9,
			Size:      spec.TextureSize,
			Primary:   prim,
			Secondary: sec,
			Scale:     float32(4 + rng.Intn(12)),
		}
		s.TextureSpecs = append(s.TextureSpecs, tspec)
	}
	s.Textures = texture.SynthesizeAll(s.TextureSpecs, spec.Layout)
	texFor := func() int { return rng.Intn(len(s.Textures)) }

	var b Builder
	const (
		width  = 8.0
		height = 4.0
		seglen = 10.0
	)
	white := vmath.Vec4{X: 1, Y: 1, Z: 1, W: 1}

	// Corridor: per segment a floor, ceiling and two walls. Large quads
	// with high UV tiling stress the texture system exactly like game
	// corridors do.
	floorTex := texFor()
	wallTex := texFor()
	ceilTex := texFor()
	for i := 0; i < spec.CorridorSegments; i++ {
		z0 := -float32(i) * seglen
		z1 := z0 - seglen
		// Slight per-segment lateral drift makes walls non-parallel to the
		// view axis, varying the camera angle across pixels.
		off := rng.Range(-0.8, 0.8)
		l := float32(-width/2) + off
		r := float32(width/2) + off
		// UV tiling keeps the sampled mip level fine (near the base level)
		// on nearby surfaces — the texel:pixel ratio games target, which is
		// what makes texture fetches dominate memory bandwidth (Fig. 2).
		// Floor (normal up).
		b.AddQuad(
			vmath.Vec3{X: l, Y: 0, Z: z0}, vmath.Vec3{X: r, Y: 0, Z: z0},
			vmath.Vec3{X: r, Y: 0, Z: z1}, vmath.Vec3{X: l, Y: 0, Z: z1},
			floorTex, 6, white)
		// Ceiling (normal down).
		b.AddQuad(
			vmath.Vec3{X: l, Y: height, Z: z1}, vmath.Vec3{X: r, Y: height, Z: z1},
			vmath.Vec3{X: r, Y: height, Z: z0}, vmath.Vec3{X: l, Y: height, Z: z0},
			ceilTex, 5, white)
		// Left wall (normal +X).
		b.AddQuad(
			vmath.Vec3{X: l, Y: 0, Z: z1}, vmath.Vec3{X: l, Y: 0, Z: z0},
			vmath.Vec3{X: l, Y: height, Z: z0}, vmath.Vec3{X: l, Y: height, Z: z1},
			wallTex, 4, white)
		// Right wall (normal -X).
		b.AddQuad(
			vmath.Vec3{X: r, Y: 0, Z: z0}, vmath.Vec3{X: r, Y: 0, Z: z1},
			vmath.Vec3{X: r, Y: height, Z: z1}, vmath.Vec3{X: r, Y: height, Z: z0},
			wallTex, 4, white)
	}

	// Props: boxes and thin pillars scattered through the corridor volume
	// to create overdraw and varied normals.
	depth := float32(spec.CorridorSegments) * seglen
	for i := 0; i < spec.Props; i++ {
		cx := rng.Range(-width/2+0.8, width/2-0.8)
		cz := -rng.Range(4, depth-4)
		var sx, sy, sz float32
		if rng.Float32() < 0.4 {
			// Pillar.
			sx, sy, sz = rng.Range(0.2, 0.5), height, rng.Range(0.2, 0.5)
		} else {
			sx = rng.Range(0.4, 1.4)
			sy = rng.Range(0.4, 1.8)
			sz = rng.Range(0.4, 1.4)
		}
		tint := vmath.Vec4{
			X: 0.7 + 0.3*rng.Float32(),
			Y: 0.7 + 0.3*rng.Float32(),
			Z: 0.7 + 0.3*rng.Float32(),
			W: 1,
		}
		b.AddBox(
			vmath.Vec3{X: cx - sx/2, Y: 0, Z: cz - sz/2},
			vmath.Vec3{X: cx + sx/2, Y: sy, Z: cz + sz/2},
			texFor(), 2, tint)
	}
	s.Mesh = b.Mesh()

	// Camera flythrough: walk down the corridor with gentle sway. A high
	// ObliqueBias keeps the view close to the horizon, so the floor, walls
	// and ceiling are seen at grazing angles — the geometry where
	// anisotropic filtering demands the most texels (Section II-C).
	frames := spec.Frames
	if frames < 1 {
		frames = 1
	}
	for f := 0; f < frames; f++ {
		t := float32(f) / float32(frames)
		z := -2 - t*(depth-12)
		sway := float32(0.6 * math.Sin(float64(t*6*math.Pi)))
		pitch := -0.02 - 0.22*(1-spec.ObliqueBias)
		eye := vmath.Vec3{X: sway, Y: 1.7, Z: z}
		look := vmath.Vec3{X: sway * 0.5, Y: 1.7 + pitch*8, Z: z - 8}
		s.Cameras = append(s.Cameras, Camera{
			Eye: eye, Center: look, Up: vmath.Vec3{Y: 1},
			FovY: 1.1, Near: 0.1, Far: 300,
		})
	}
	return s
}
