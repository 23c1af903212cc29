package scene_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/scene"
	"repro/internal/texture"
	"repro/internal/workload"
)

// texturesSHA256 hashes every texture's Level.Pix, all levels in order, as
// little-endian uint32 words.
func texturesSHA256(sc *scene.Scene) string {
	h := sha256.New()
	var w [4]byte
	for _, tx := range sc.Textures {
		for _, l := range tx.Levels {
			for _, p := range l.Pix {
				binary.LittleEndian.PutUint32(w[:], p)
				h.Write(w[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratePixelsPinned pins the synthesized texture inventory of every
// game under both layouts: synthesis may get faster but its pixels must not
// move, since every simulated metric downstream depends on them.
func TestGeneratePixelsPinned(t *testing.T) {
	want := []struct {
		game   string
		layout texture.Layout
		sha    string
	}{
		{"doom3", texture.LayoutMorton, "af2d9f83c7fe28f35e1ce6be9d20b7062b675d6f3c55da056464fff1fc9e437f"},
		{"doom3", texture.LayoutLinear, "b529050aab2243f1b2e74470e548d599e8e2f9e291bf41e596c94335f1abab56"},
		{"fear", texture.LayoutMorton, "686ab199fa335b5fec966bcfca21373ef2de943acd4aaf702fef5c0154e3c088"},
		{"fear", texture.LayoutLinear, "53c7d6c0016a2ad26dad6ba80278c0da9d16ca68b149bc696b2b7f1fbec5d85d"},
		{"hl2", texture.LayoutMorton, "c74a71b6b4a173295ff0d2b638b12ab4434c9d86a168f865f7e59abc311582df"},
		{"hl2", texture.LayoutLinear, "d2cc8d453553228c4066797ac1f6d3b0c51b2d5fff2375a91f5140db766ef883"},
		{"riddick", texture.LayoutMorton, "54ebd8ebb04990a0e4ed9efeccbf596f513e267d0c3780bdc5c0bb0dd37111e7"},
		{"riddick", texture.LayoutLinear, "18a8c72d5183982537c654f5399d4aefc2bf59c4a79a79a112e61b44ba257d20"},
		{"wolf", texture.LayoutMorton, "6cf2b657ca2877a1343b6b298c5c7004206cb56d4c4c412198da984b3a06d4c6"},
		{"wolf", texture.LayoutLinear, "80c77ac28e565709cfbcfe8b406bb28b251f89c083f314bb23bd21dd8e6f52a2"},
	}
	for _, c := range want {
		spec := workload.MustGet(c.game, 64, 48).Spec
		spec.Layout = c.layout
		if got := texturesSHA256(scene.Generate(spec)); got != c.sha {
			t.Errorf("%s %s: textures sha256 %s, want %s", c.game, c.layout, got, c.sha)
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	spec := workload.MustGet("hl2", 64, 48).Spec
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scene.Generate(spec)
	}
}
