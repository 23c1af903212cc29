package main

import (
	"math"
	"testing"
	"time"
)

func TestPkgGroup(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/texture.(*Texture).LineTexels": "texture",
		"repro/internal/tfim.(*ATFIMPath).offload":     "tfim",
		"repro/internal/cache.(*Cache).AccessAngle":    "cache",
		"repro/internal/hmc.(*HMC).vaultAccess":        "hmc",
		"repro/internal/dram.(*GDDR5).Access":          "dram",
		"repro/internal/sim.(*BandwidthMeter).Reserve": "sim",
		"repro/internal/raster.(*Rasterizer).ScanTile": "raster",
		"repro/internal/shader.(*Machine).Run":         "shader",
		"repro/internal/gpu.(*shardWorker).runGroup":   "gpu",
		"repro/internal/farm/flight.(*Group[...]).Do":  "other",
		"repro/internal/core.runScene":                 "other",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime_map",
		"runtime.mapaccess2_fast64":                    "runtime_map",
		"aeshashbody":                                  "runtime_map",
		"runtime.scanobject":                           "runtime_gc",
		"runtime.gcDrain":                              "runtime_gc",
		"runtime.mallocgc":                             "malloc",
		"runtime.growslice":                            "malloc",
		"runtime.memclrNoHeapPointers":                 "malloc",
		"runtime.futex":                                "other",
		"main.spin":                                    "other",
		"":                                             "other",
	} {
		if got := pkgGroup(fn); got != want {
			t.Errorf("pkgGroup(%q) = %q, want %q", fn, got, want)
		}
	}
}

var sink int

// mapChurn keeps the CPU in map inserts and lookups.
func mapChurn(d time.Duration) {
	m := map[int]int{}
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1<<14; i++ {
			m[i*7919%100003] += i
			sink += m[i*31%100003]
		}
	}
}

func TestProfileShares(t *testing.T) {
	prof, err := cpuProfile(func() error { mapChurn(600 * time.Millisecond); return nil })
	if err != nil {
		t.Fatal(err)
	}
	shares, top, err := profileShares(prof)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, g := range cpuGroups {
		sum += shares[g]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if shares["runtime_map"] < 0.3 {
		t.Errorf("map-bound loop: runtime_map share %.2f; top leaves %+v", shares["runtime_map"], top)
	}
}
