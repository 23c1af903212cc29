package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/scene"
	"repro/internal/workload"
)

// frame-atfim: a closed loop of one in-process caller, each op one
// uncached core.RunContext of doom3 640x480 under A-TFIM with 2 shards.
// Texture addressing, the A-TFIM offload path, the texture caches and the
// HMC vaults take most of its host CPU and all of its allocation; no
// serving or caching layer runs.
const (
	frameGame   = "doom3"
	frameWidth  = 640
	frameHeight = 480
	frameShards = 2
)

// setupRepeats is how many times each workload repeats its set-up body;
// setup_s is the median.
const setupRepeats = 3

// digests are the expected outputs recorded in digests.json.
type digests struct {
	// FrameMetrics is the sha256 of frame-atfim's metrics/v1 snapshot
	// (build stamp removed).
	FrameMetrics string `json:"frame_atfim_metrics_sha256"`
}

func loadDigests(root string) (*digests, error) {
	body, err := os.ReadFile(filepath.Join(root, "perfbench", "digests.json"))
	if err != nil {
		return nil, err
	}
	var d digests
	if err := json.Unmarshal(body, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return &d, nil
}

func sha256JSON(v any) string {
	body, err := json.Marshal(v)
	if err != nil {
		return "unhashable: " + err.Error()
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// metricsDigest hashes a result's metrics/v1 snapshot without its build
// stamp, which names the binary rather than the computation.
func metricsDigest(res *core.Result) string {
	s := *res.Metrics()
	s.Build = nil
	return sha256JSON(s)
}

// synthScene builds a workload's scene the way internal/core's scene
// cache does: generation, then texture address assignment.
func synthScene(wl workload.Workload) *scene.Scene {
	sc := scene.Generate(wl.Spec)
	sc.AssignTextureAddresses(mem.RegionTexture)
	return sc
}

// setupFrame runs frame-atfim's set-up body setupRepeats times: synthesize
// the doom3 scene and render the warm-up frame. The last repetition goes
// through core.RunContext, which leaves the scene in core's scene cache so
// no timed op synthesizes. It returns the set-up times, the synthesis
// times of the other repetitions, and one synthesized scene.
func setupFrame(ctx context.Context, r *run, wl workload.Workload, opts core.Options) (setups, synths []float64, sc *scene.Scene, err error) {
	for i := 0; i < setupRepeats; i++ {
		tr := r.spans.newTrace()
		t0 := time.Now()
		root := r.spans.begin(tr, 0, "setup", "setup", t0)
		if i < setupRepeats-1 {
			sc = synthScene(wl)
			t1 := time.Now()
			synths = append(synths, ms(t1.Sub(t0)))
			r.spans.add(tr, root, "setup", "scene.synth", t0, t1, nil)
			if _, err = core.RunScene(sc, wl, opts); err != nil {
				return nil, nil, nil, err
			}
		} else if _, err = core.RunContext(ctx, wl, opts); err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		r.spans.end(root, time.Now(), map[string]any{"repeat": i})
	}
	return setups, synths, sc, nil
}

func runFrame(ctx context.Context, r *run) error {
	want, err := loadDigests(r.root)
	if err != nil {
		return err
	}
	wl := workload.MustGet(frameGame, frameWidth, frameHeight)
	opts := core.Options{Design: config.ATFIM, Shards: frameShards}
	setups, synths, sc, err := setupFrame(ctx, r, wl, opts)
	if err != nil {
		return err
	}
	r.set("setup_s", median(setups))
	r.set("scene.synth_ms", median(synths))
	r.detail("setup_s_samples", setups)

	if r.trace {
		return traceFrame(ctx, r, wl, opts, want, sc)
	}

	var cs costSeries
	deadline := time.Now().Add(r.seconds)
	for time.Now().Before(deadline) {
		res, c, err := frameOp(ctx, r, wl, opts, "op")
		if !r.checkFrame(res, err, want) {
			continue
		}
		cs.add(c)
	}
	if len(cs.wallMS) == 0 {
		return fmt.Errorf("frame-atfim: no op passed verification")
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	r.detail("wall_p50_ms", median(cs.wallMS))
	r.set("op.cpu_ms", median(cs.cpuMS))
	r.set("alloc_mb_per_op", median(cs.allocMB))
	r.set("peak_rss_mb", rss)
	r.detail("ops_verified", len(cs.wallMS))
	r.detail("wall_ms_samples", cs.wallMS)
	r.detail("cpu_ms_samples", cs.cpuMS)
	return nil
}

// frameOp runs one timed, uncached frame.
func frameOp(ctx context.Context, r *run, wl workload.Workload, opts core.Options, name string) (*core.Result, opCost, error) {
	tr := r.spans.newTrace()
	m := startCost()
	res, err := core.RunContext(ctx, wl, opts)
	c := m.stop()
	r.spans.add(tr, 0, "ops", name, m.t0, m.t0.Add(c.wall), map[string]any{
		"design": opts.Design.String(), "cpu_ms": ms(c.cpu), "alloc_mb": float64(c.allocBytes) / (1 << 20)})
	r.attempted++
	return res, c, err
}

// checkFrame verifies one op's output against the recorded digest; a
// failed op is counted and publishes no numbers.
func (r *run) checkFrame(res *core.Result, err error, want *digests) bool {
	if err != nil {
		r.failed++
		r.fail("frame op: %v", err)
		return false
	}
	if got := metricsDigest(res); got != want.FrameMetrics {
		r.failed++
		r.fail("frame op: metrics digest %s, recorded %s", got, want.FrameMetrics)
		return false
	}
	return true
}

// traceFrame is frame-atfim's traced run. Plain ops give the untraced
// frame time and runtime costs, profiled ops the flat CPU profile, and
// one decorated A-TFIM and one decorated Baseline frame give the per-layer
// calls and host times. Each decorated frame must equal the untraced
// core.RunContext result of its design exactly.
func traceFrame(ctx context.Context, r *run, wl workload.Workload, opts core.Options, want *digests, sc *scene.Scene) error {
	const plainOps, profiledOps = 2, 3
	var plain costSeries
	h0 := readHeap()
	var atfim *core.Result
	for i := 0; i < plainOps; i++ {
		res, c, err := frameOp(ctx, r, wl, opts, "op")
		if !r.checkFrame(res, err, want) {
			continue
		}
		atfim = res
		plain.add(c)
	}
	h1 := readHeap()
	if atfim == nil {
		return fmt.Errorf("frame-atfim: no plain op passed verification")
	}
	prof, err := cpuProfile(func() error {
		for i := 0; i < profiledOps; i++ {
			res, _, err := frameOp(ctx, r, wl, opts, "op.profiled")
			r.checkFrame(res, err, want)
		}
		return nil
	})
	if err != nil {
		return err
	}
	shares, top, err := profileShares(prof)
	if err != nil {
		return err
	}
	r.detail("cpu_top_leaves", top)
	for g, v := range shares {
		r.set("cpu."+g, v)
	}

	frameMS := median(plain.wallMS)
	r.set("gpu.frame_ms", frameMS)
	r.set("op.cpu_ms", median(plain.cpuMS))
	r.set("runtime.mallocs_per_op", median(plain.mallocs))
	r.set("runtime.gc_cycles_per_op", median(plain.gcCycles))
	if d := h1.totalCPU - h0.totalCPU; d > 0 {
		r.set("runtime.gc_cpu_share", (h1.gcCPU-h0.gcCPU)/d)
	}

	f := atfim.Frame
	r.set("sim.cycles", float64(f.Cycles))
	r.set("sim.tex_requests", float64(f.Activity.Path.TexRequests))
	r.set("sim.pim_texel_fetches", float64(f.Activity.Path.PIMTexelFetches))
	if l1 := f.Caches["texL1"]; l1.Accesses > 0 {
		r.set("sim.texl1_hit_ratio", float64(l1.Hits)/float64(l1.Accesses))
	}
	r.set("sim.hmc_vault_bytes", float64(f.Activity.InternalBytes))

	// Decorated frames, each checked against the untraced result.
	baseOpts := opts
	baseOpts.Design = config.Baseline
	base, _, err := frameOp(ctx, r, wl, baseOpts, "op.baseline")
	if err != nil {
		r.failed++
		r.fail("baseline frame: %v", err)
		return nil
	}
	for _, c := range []struct {
		design config.Design
		want   *gpu.FrameResult
	}{{config.ATFIM, atfim.Frame}, {config.Baseline, base.Frame}} {
		tr := r.spans.newTrace()
		tf, err := renderTimed(ctx, sc, wl, c.design, frameShards)
		r.attempted++
		if err != nil {
			r.failed++
			r.fail("decorated %v frame: %v", c.design, err)
			continue
		}
		end := time.Now()
		root := r.spans.add(tr, 0, "traced", "gpu.frame", end.Add(-tf.wall), end, map[string]any{
			"design": c.design.String(), "cpu_ms": ms(tf.cpu)})
		r.spans.add(tr, root, "traced", "tfim.sample", end.Add(-tf.wall), end, map[string]any{
			"calls": tf.clock.sampleCalls, "thread_ms": float64(tf.clock.sampleNs) / 1e6,
			"note": "aggregate over all workers"})
		r.spans.add(tr, root, "traced", "mem.access", end.Add(-tf.wall), end, map[string]any{
			"calls": tf.clock.memCalls, "thread_ms": float64(tf.clock.memNs) / 1e6,
			"in_sample_ms": float64(tf.clock.memInSampleNs) / 1e6})
		same := reflect.DeepEqual(tf.res, c.want)
		r.detail("decorated_"+c.design.String()+"_frame_sha256", sha256JSON(tf.res))
		r.detail("untraced_"+c.design.String()+"_frame_sha256", sha256JSON(c.want))
		if !same {
			r.failed++
			r.fail("decorated %v frame differs from the untraced core.RunContext result", c.design)
			continue
		}
		k := tf.clock
		frameCPU := float64(tf.cpu)
		switch c.design {
		case config.ATFIM:
			r.set("trace.overhead_ratio", ms(tf.wall)/frameMS)
			r.set("tfim.sample_calls", float64(k.sampleCalls))
			if k.sampleCalls > 0 {
				r.set("tfim.sample_ns", float64(k.sampleNs)/float64(k.sampleCalls))
			}
			if frameCPU > 0 {
				r.set("tfim.self_share", float64(k.sampleNs-k.memInSampleNs)/frameCPU)
				r.set("gpu.other_share", 1-float64(k.sampleNs+k.memNs-k.memInSampleNs)/frameCPU)
			}
			r.set("hmc.calls", float64(k.memCalls))
			if k.memCalls > 0 {
				r.set("hmc.ns", float64(k.memNs)/float64(k.memCalls))
			}
		case config.Baseline:
			r.set("dram.calls", float64(k.memCalls))
			if k.memCalls > 0 {
				r.set("dram.ns", float64(k.memNs)/float64(k.memCalls))
			}
		}
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	r.detail("peak_rss_mb", rss)
	return nil
}
