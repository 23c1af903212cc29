package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/scene"
	"repro/internal/texture"
	"repro/internal/workload"
)

func captureScene(t *testing.T) (*scene.Scene, Header) {
	t.Helper()
	wl := workload.MustGet("riddick", 320, 240)
	sc := wl.Scene()
	return sc, Header{Name: wl.Name(), Width: wl.Width, Height: wl.Height}
}

func TestRoundTrip(t *testing.T) {
	sc, hdr := captureScene(t)
	var buf bytes.Buffer
	if err := Write(&buf, hdr, sc, sc.TextureSpecs); err != nil {
		t.Fatal(err)
	}
	rhdr, rsc, err := Read(&buf, texture.LayoutMorton)
	if err != nil {
		t.Fatal(err)
	}
	if rhdr != hdr {
		t.Fatalf("header %+v want %+v", rhdr, hdr)
	}
	if len(rsc.Mesh.Vertices) != len(sc.Mesh.Vertices) {
		t.Fatalf("vertices %d want %d", len(rsc.Mesh.Vertices), len(sc.Mesh.Vertices))
	}
	for i := range sc.Mesh.Vertices {
		if rsc.Mesh.Vertices[i] != sc.Mesh.Vertices[i] {
			t.Fatalf("vertex %d differs", i)
		}
	}
	for i := range sc.Mesh.Triangles {
		if rsc.Mesh.Triangles[i] != sc.Mesh.Triangles[i] {
			t.Fatalf("triangle %d differs", i)
		}
	}
	for i := range sc.Cameras {
		if rsc.Cameras[i] != sc.Cameras[i] {
			t.Fatalf("camera %d differs", i)
		}
	}
	if rsc.Ambient != sc.Ambient || rsc.LightDir != sc.LightDir {
		t.Fatal("lighting differs")
	}
	// Textures must re-synthesize bit-identically from their recipes.
	for ti := range sc.Textures {
		a := sc.Textures[ti].Levels[0].Pix
		b := rsc.Textures[ti].Levels[0].Pix
		for pi := range a {
			if a[pi] != b[pi] {
				t.Fatalf("texture %d texel %d differs after replay", ti, pi)
			}
		}
	}
}

func TestSpecCountMismatch(t *testing.T) {
	sc, hdr := captureScene(t)
	var buf bytes.Buffer
	if err := Write(&buf, hdr, sc, sc.TextureSpecs[:1]); err == nil {
		t.Fatal("mismatched spec count accepted")
	}
}

func TestBadMagic(t *testing.T) {
	_, _, err := Read(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8}), texture.LayoutMorton)
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic not rejected: %v", err)
	}
}

func TestTruncatedFile(t *testing.T) {
	sc, hdr := captureScene(t)
	var buf bytes.Buffer
	if err := Write(&buf, hdr, sc, sc.TextureSpecs); err != nil {
		t.Fatal(err)
	}
	for _, frac := range []int{2, 4, 10} {
		data := buf.Bytes()[:buf.Len()/frac]
		if _, _, err := Read(bytes.NewReader(data), texture.LayoutMorton); err == nil {
			t.Fatalf("truncated trace (1/%d) accepted", frac)
		}
	}
}

func TestCorruptIndicesRejected(t *testing.T) {
	sc, hdr := captureScene(t)
	// Corrupt a triangle index beyond the vertex count.
	sc2 := *sc
	sc2.Mesh.Triangles = append([]scene.Triangle{}, sc.Mesh.Triangles...)
	sc2.Mesh.Triangles[0].V[0] = len(sc.Mesh.Vertices) + 100
	var buf bytes.Buffer
	if err := Write(&buf, hdr, &sc2, sc.TextureSpecs); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Read(&buf, texture.LayoutMorton); err == nil {
		t.Fatal("out-of-range vertex index accepted")
	}
}

// recipeTrace encodes a geometry-free trace whose texture recipes have the
// given sizes.
func recipeTrace(t *testing.T, sizes ...int) []byte {
	t.Helper()
	specs := make([]texture.SynthSpec, len(sizes))
	for i, n := range sizes {
		specs[i] = texture.SynthSpec{Kind: texture.SynthChecker, Seed: uint64(i), Size: n}
	}
	sc := &scene.Scene{Textures: make([]*texture.Texture, len(specs))}
	var buf bytes.Buffer
	if err := Write(&buf, Header{Name: "recipes"}, sc, specs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestHostileTextureSpecsRejected(t *testing.T) {
	cases := map[string][]int{
		"size 0":          {0},
		"size 3":          {3},
		"size 8192":       {8192},
		"size 1<<30":      {1 << 30},
		"over byte cap":   {4096, 4096, 4096, 4096, 4096},
		"bad after good":  {16, 3},
		"cap after small": {16, 4096, 4096, 4096, 4096},
	}
	for name, sizes := range cases {
		_, _, err := Read(bytes.NewReader(recipeTrace(t, sizes...)), texture.LayoutMorton)
		if err == nil {
			t.Errorf("%s: hostile texture recipe accepted", name)
		}
	}
}

func TestSmallTextureSpecsAccepted(t *testing.T) {
	_, sc, err := Read(bytes.NewReader(recipeTrace(t, 1, 2, 64)), texture.LayoutLinear)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{1, 2, 64} {
		if got := sc.Textures[i].Levels[0].W; got != want || sc.Textures[i].ID != i {
			t.Errorf("texture %d: id %d size %d, want id %d size %d", i, sc.Textures[i].ID, got, i, want)
		}
	}
}
