package main

import (
	"math/rand"
	"time"

	"repro/internal/suite"
)

// The serve workloads' open-loop schedule. Misses are distinct cold specs
// that rotate through game x frame index x design; hits repeat the hot
// set, one spec per game, warmed during set-up. Every run sends the same
// specs at the same instants; the seed only permutes their order.
var (
	serveGames   = []string{"doom3", "fear", "hl2", "riddick", "wolf"}
	serveDesigns = []string{"baseline", "bpim", "stfim", "atfim"}
)

const (
	// serveWidth x serveHeight keeps one cold simulation at 40-90 ms on a
	// 2-core host (160x120 takes 150-380 ms), so a run holds enough misses
	// for a tail percentile while the single worker stays busy under about
	// half the time.
	serveWidth  = 64
	serveHeight = 48
	// coldFrames is the number of camera frames cold specs use (indices
	// 1..coldFrames); the hot set uses frame index 0, the default camera.
	coldFrames = 3
	// hitsPerMiss hits are spread evenly between consecutive misses.
	hitsPerMiss = 20
)

// arrival is one scheduled request.
type arrival struct {
	due  time.Duration // offset from the start of the load phase
	hit  bool
	spec suite.Spec
}

func (a arrival) class() string {
	if a.hit {
		return "hit"
	}
	return "miss"
}

func serveSpec(game, design string, frame int) suite.Spec {
	return suite.Spec{Game: game, Width: serveWidth, Height: serveHeight, Design: design, FrameIndex: frame}
}

// hotSet is the set warmed during set-up, one spec per game.
func hotSet() []suite.Spec {
	out := make([]suite.Spec, len(serveGames))
	for i, g := range serveGames {
		out[i] = serveSpec(g, "atfim", 0)
	}
	return out
}

// coldSpecs lists every cold spec in seed order: frame blocks in a
// shuffled order, each block's game x design cells shuffled, so every
// block holds each cell once.
func coldSpecs(rng *rand.Rand) []suite.Spec {
	var out []suite.Spec
	for _, f := range rng.Perm(coldFrames) {
		block := make([]suite.Spec, 0, len(serveGames)*len(serveDesigns))
		for _, g := range serveGames {
			for _, d := range serveDesigns {
				block = append(block, serveSpec(g, d, f+1))
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out
}

// schedule returns the load phase's arrivals in due order: every cold
// spec once, spread evenly over span, with hitsPerMiss hits evenly between
// consecutive misses. Hits cycle through the hot set in seed-shuffled
// rounds.
func schedule(seed int64, span time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	cold := coldSpecs(rng)
	hot := hotSet()
	slot := span / time.Duration(len(cold))
	var (
		out   []arrival
		round []int
	)
	for i, sp := range cold {
		start := time.Duration(i) * slot
		out = append(out, arrival{due: start, spec: sp})
		for j := 0; j < hitsPerMiss; j++ {
			if len(round) == 0 {
				round = rng.Perm(len(hot))
			}
			h := hot[round[0]]
			round = round[1:]
			due := start + time.Duration(2*j+1)*slot/time.Duration(2*hitsPerMiss)
			out = append(out, arrival{due: due, hit: true, spec: h})
		}
	}
	return out
}
