// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section VII) plus the ablations called out in DESIGN.md.
// Each benchmark regenerates its experiment and reports the headline
// metrics through testing.B metrics, printing the full table once under
// -v. Run with:
//
//	go test -bench=. -benchmem            # quick workload set
//	go test -bench=. -benchmem -short     # mini set (fast)
package repro_test

import (
	"context"
	"testing"

	"repro"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workload"
)

func benchSet(b *testing.B) []repro.WorkloadSpec {
	if testing.Short() {
		return repro.MiniSet()
	}
	return repro.QuickSet()
}

// runExperimentBench runs one experiment per iteration (results are
// memoized after the first pass, so b.N loops stay cheap) and reports its
// summary metrics.
func runExperimentBench(b *testing.B, name string, metrics ...string) {
	wls := benchSet(b)
	var exp *repro.Experiment
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		exp, err = repro.Registry().Run(context.Background(), name, wls)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, m := range metrics {
		if v, ok := exp.Summary[m]; ok {
			b.ReportMetric(v, m)
		}
	}
	b.Log("\n" + exp.Table.String())
}

func BenchmarkTable1Config(b *testing.B)    { runExperimentBench(b, "table1") }
func BenchmarkTable2Workloads(b *testing.B) { runExperimentBench(b, "table2") }

func BenchmarkFig02MemoryBreakdown(b *testing.B) {
	runExperimentBench(b, "fig2", "avg_texture_share")
}

func BenchmarkFig04AnisoOff(b *testing.B) {
	runExperimentBench(b, "fig4", "avg_filter_speedup", "avg_traffic_normalized")
}

func BenchmarkFig05BPIM(b *testing.B) {
	runExperimentBench(b, "fig5", "avg_render_speedup", "avg_filter_speedup")
}

func BenchmarkFig07TexelFetches(b *testing.B) {
	runExperimentBench(b, "fig7", "baseline_fetches_4x", "atfim_fetches_4x")
}

func BenchmarkFig10TextureSpeedup(b *testing.B) {
	runExperimentBench(b, "fig10", "avg_speedup_atfim", "max_speedup_atfim", "avg_speedup_bpim")
}

func BenchmarkFig11RenderSpeedup(b *testing.B) {
	runExperimentBench(b, "fig11", "avg_speedup_atfim", "max_speedup_atfim", "avg_speedup_bpim")
}

func BenchmarkFig12MemoryTraffic(b *testing.B) {
	runExperimentBench(b, "fig12", "avg_traffic_stfim", "avg_traffic_atfim001", "avg_traffic_atfim005")
}

func BenchmarkFig13Energy(b *testing.B) {
	runExperimentBench(b, "fig13", "avg_energy_atfim", "avg_energy_bpim")
}

func BenchmarkFig14ThresholdSpeedup(b *testing.B) {
	runExperimentBench(b, "fig14", "avg_A-TFIM-001pi", "avg_A-TFIM-no")
}

func BenchmarkFig15ThresholdQuality(b *testing.B) {
	runExperimentBench(b, "fig15", "avg_A-TFIM-001pi", "avg_A-TFIM-no")
}

func BenchmarkFig16Tradeoff(b *testing.B) {
	runExperimentBench(b, "fig16", "speedup_A-TFIM-001pi", "psnr_A-TFIM-001pi")
}

func BenchmarkOverheadAnalysis(b *testing.B) {
	runExperimentBench(b, "overhead", "ptb_kb", "hmc_fraction", "gpu_fraction")
}

// --- Ablation benches (DESIGN.md section 7) ---

func ablationWorkload(b *testing.B) repro.WorkloadSpec {
	if testing.Short() {
		return workload.MustGet("doom3", 320, 240)
	}
	return workload.MustGet("doom3", 640, 480)
}

// BenchmarkAblationReorder compares A-TFIM against S-TFIM, isolating the
// contribution of the anisotropic-first reordering plus on-chip caching:
// both run filtering in memory; only A-TFIM reorders and caches parents.
func BenchmarkAblationReorder(b *testing.B) {
	wl := ablationWorkload(b)
	var speedup float64
	for i := 0; i < b.N; i++ {
		st, err := core.RunCached(wl, core.Options{Design: config.STFIM})
		if err != nil {
			b.Fatal(err)
		}
		at, err := core.RunCached(wl, core.Options{Design: config.ATFIM})
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(st.Cycles()) / float64(at.Cycles())
	}
	b.ReportMetric(speedup, "atfim_over_stfim")
}

// BenchmarkAblationAddressMap compares Morton-tiled vs linear texel
// layouts under the baseline (texture cache locality).
func BenchmarkAblationAddressMap(b *testing.B) {
	wl := ablationWorkload(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		morton, err := core.RunCached(wl, core.Options{Design: config.Baseline})
		if err != nil {
			b.Fatal(err)
		}
		linear, err := core.RunCached(wl, core.Options{Design: config.Baseline, LinearLayout: true})
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(linear.TextureTraffic()) / float64(morton.TextureTraffic())
	}
	b.ReportMetric(ratio, "linear_traffic_vs_morton")
}

// BenchmarkAblationConsolidation measures the Child Texel Consolidation
// unit's effect on HMC-internal fetches.
func BenchmarkAblationConsolidation(b *testing.B) {
	wl := ablationWorkload(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		on, err := core.RunCached(wl, core.Options{Design: config.ATFIM})
		if err != nil {
			b.Fatal(err)
		}
		off, err := core.RunCached(wl, core.Options{Design: config.ATFIM, DisableConsolidation: true})
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(off.Frame.Activity.InternalBytes) / float64(on.Frame.Activity.InternalBytes)
	}
	b.ReportMetric(ratio, "internal_bytes_without_consolidation")
}

// BenchmarkAblationMTUCount explores S-TFIM with shared MTUs (Section IV
// discusses reducing MTU count to save area at a contention cost).
func BenchmarkAblationMTUCount(b *testing.B) {
	wl := ablationWorkload(b)
	var slowdown float64
	for i := 0; i < b.N; i++ {
		full, err := core.RunCached(wl, core.Options{Design: config.STFIM})
		if err != nil {
			b.Fatal(err)
		}
		shared, err := core.RunCached(wl, core.Options{Design: config.STFIM, MTUs: 4})
		if err != nil {
			b.Fatal(err)
		}
		slowdown = float64(shared.Cycles()) / float64(full.Cycles())
	}
	b.ReportMetric(slowdown, "slowdown_with_4_mtus")
}

// BenchmarkAblationAngleGranularity compares the default per-line camera
// angle tag against forcing recalculation on every angle change
// (threshold ~0), quantifying what the threshold mechanism buys.
func BenchmarkAblationAngleGranularity(b *testing.B) {
	wl := ablationWorkload(b)
	var speedup float64
	for i := 0; i < b.N; i++ {
		strict, err := core.RunCached(wl, core.Options{Design: config.ATFIM, AngleThreshold: 0.001})
		if err != nil {
			b.Fatal(err)
		}
		def, err := core.RunCached(wl, core.Options{Design: config.ATFIM})
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(strict.Cycles()) / float64(def.Cycles())
	}
	b.ReportMetric(speedup, "default_over_strictest")
}

// BenchmarkAblationCompression measures fixed-rate texture block
// compression under the baseline — the orthogonal traffic-reduction
// technique of Section VIII — for comparison with A-TFIM's reduction.
func BenchmarkAblationCompression(b *testing.B) {
	wl := ablationWorkload(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		raw, err := core.RunCached(wl, core.Options{Design: config.Baseline})
		if err != nil {
			b.Fatal(err)
		}
		comp, err := core.RunCached(wl, core.Options{Design: config.Baseline, Compressed: true})
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(comp.TextureTraffic()) / float64(raw.TextureTraffic())
	}
	b.ReportMetric(ratio, "compressed_traffic_vs_raw")
}

// BenchmarkAblationMultiHMC explores the Section V-E multi-HMC scenario:
// two cubes attached to one GPU, address-interleaved at texture
// granularity so each parent-texel package maps to a single cube.
func BenchmarkAblationMultiHMC(b *testing.B) {
	wl := ablationWorkload(b)
	var speedup float64
	for i := 0; i < b.N; i++ {
		one, err := core.RunCached(wl, core.Options{Design: config.ATFIM})
		if err != nil {
			b.Fatal(err)
		}
		two, err := core.RunCached(wl, core.Options{Design: config.ATFIM, HMCCubes: 2})
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(one.Cycles()) / float64(two.Cycles())
	}
	b.ReportMetric(speedup, "two_cubes_over_one")
}

// BenchmarkSimulateShards1/2/8 measure the tile-parallel frame scan: one
// uncached single-frame simulation per iteration, identical output at
// every shard count, so ns/op directly exposes the fork/join speedup
// (scripts/bench.sh records the family into BENCH_pr4.json).
func benchSimulateShards(b *testing.B, shards int) {
	wl := workload.MustGet("doom3", 640, 480)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := repro.SimulateContext(context.Background(), wl,
			repro.WithDesign(repro.Baseline),
			repro.WithShards(shards))
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateShards1(b *testing.B) { benchSimulateShards(b, 1) }
func BenchmarkSimulateShards2(b *testing.B) { benchSimulateShards(b, 2) }
func BenchmarkSimulateShards8(b *testing.B) { benchSimulateShards(b, 8) }

// BenchmarkRenderFrameBaseline and ...ATFIM give raw simulator throughput
// (wall-clock per simulated frame) for profiling the simulator itself.
func BenchmarkRenderFrameBaseline(b *testing.B) {
	wl := workload.MustGet("wolf", 320, 240)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(wl, core.Options{Design: config.Baseline}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRenderFrameATFIM(b *testing.B) {
	wl := workload.MustGet("wolf", 320, 240)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(wl, core.Options{Design: config.ATFIM}); err != nil {
			b.Fatal(err)
		}
	}
}
