// Package core wires the paper's four designs together (memory backend +
// texture path + GPU pipeline), runs workloads under them, and implements
// every evaluation experiment (the figures and tables of Section VII).
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/energy"
	"repro/internal/gpu"
	"repro/internal/hmc"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/scene"
	"repro/internal/texture"
	"repro/internal/tfim"
	"repro/internal/workload"
)

// Options configures one simulation run.
type Options struct {
	// Design selects the architecture.
	Design config.Design
	// AngleThreshold overrides the A-TFIM camera-angle threshold when > 0.
	AngleThreshold float32
	// DisableAniso reproduces the Fig. 4 study (anisotropic filtering off).
	DisableAniso bool
	// FrameIndex selects the camera frame (default: mid-flythrough).
	FrameIndex int
	// Frames renders this many consecutive frames (default 1).
	Frames int
	// LinearLayout forces row-major texel addressing (ablation).
	LinearLayout bool
	// DisableConsolidation turns off Child Texel Consolidation (ablation).
	DisableConsolidation bool
	// MTUs overrides the S-TFIM MTU count when > 0 (ablation).
	MTUs int
	// Compressed enables fixed-rate texture block compression (ablation;
	// not supported with A-TFIM).
	Compressed bool
	// HMCCubes sets the number of HMC cubes attached to the GPU (Section
	// V-E's multi-HMC scenario); 0 or 1 means a single cube.
	HMCCubes int
	// Shards is the number of worker goroutines sharding one frame's
	// tile-group scan (0 = DefaultShards, 1 = serial). Sharding is a host
	// parallelization knob only: simulated results are byte-identical at
	// any shard count, so Shards is excluded from cache and store keys.
	Shards int
	// Trace, when non-nil, receives cycle-timeline spans from every
	// instrumented unit (pipeline stages, texture units, offload packages,
	// DRAM/HMC bandwidth meters). Tracing never perturbs simulated cycle
	// counts. Export with Trace.WriteChromeTrace.
	Trace *obs.Tracer
	// Progress, when non-nil, receives in-flight reports (stage, supertile
	// groups merged, cycles simulated) while each frame runs. Fragment-
	// stage reports arrive from worker goroutines concurrently; the
	// callback must be safe for concurrent use and must not block. Like
	// Trace it is runtime-only: excluded from cache/store keys and never
	// serialized, and it cannot perturb simulated results.
	Progress func(Progress) `json:"-"`
	// Profile, when non-nil, is filled with a pim-render/frameprofile/v1
	// frame-anatomy artifact after the run: per-meter bandwidth timelines
	// merged onto the frame timeline, per-supertile-group attribution, and
	// stage spans. Runtime-only like Trace/Progress: excluded from cache
	// and store keys, never serialized, and incapable of perturbing
	// simulated results (it only reads meters the timing model already
	// populated).
	Profile *obs.FrameProfile `json:"-"`
}

// Progress is a point-in-time report of a frame simulation in flight.
type Progress = gpu.Progress

// Result is the outcome of one run.
type Result struct {
	Workload workload.Workload
	Design   config.Design
	Options  Options
	// Frame holds the (accumulated) measurements.
	Frame *gpu.FrameResult
	// Energy is the estimated energy of the run.
	Energy energy.Breakdown
	// Image is the last rendered frame.
	Image []uint32

	path    gpu.TexturePath
	backend mem.Backend

	// storedMetrics is the embedded pim-render/metrics/v1 snapshot of a
	// Result restored from the durable store (which has no live path or
	// backend to recompute one from); Metrics serves it verbatim.
	storedMetrics *obs.Snapshot
}

// Restored reports whether the result was loaded from the durable store
// rather than simulated in this process.
func (r *Result) Restored() bool { return r.storedMetrics != nil }

// PathDebug returns the texture path's diagnostic string, if it has one.
func (r *Result) PathDebug() string {
	if d, ok := r.path.(interface{ DebugString() string }); ok {
		return d.DebugString()
	}
	return ""
}

// TextureTraffic returns the texture-class bytes moved between GPU and
// memory (the Fig. 12 metric).
func (r *Result) TextureTraffic() uint64 { return r.Frame.Traffic.TextureBytes() }

// TotalTraffic returns all GPU<->memory bytes.
func (r *Result) TotalTraffic() uint64 { return r.Frame.Traffic.Total() }

// TexFilterLatency returns the mean texture-filtering latency in cycles.
func (r *Result) TexFilterLatency() float64 { return r.Frame.TexFilterLatency() }

// Cycles returns the total render time in GPU cycles.
func (r *Result) Cycles() int64 { return r.Frame.Cycles }

// trafficReporter is implemented by texture paths that track their own
// GPU<->memory traffic.
type trafficReporter interface{ Traffic() *mem.Traffic }

// ValidateOptions reports whether opts form a runnable configuration.
// cmd/pimfarm uses it to reject bad submissions with a 400 at submit time
// instead of queuing a job that is guaranteed to fail.
func ValidateOptions(opts Options) error { return buildConfig(opts).Validate() }

// buildConfig derives the design configuration from options.
func buildConfig(opts Options) config.Config {
	cfg := config.Default(opts.Design)
	if opts.AngleThreshold > 0 {
		cfg.TFIM.AngleThreshold = opts.AngleThreshold
	}
	if opts.DisableAniso {
		cfg.AnisoEnabled = false
	}
	if opts.LinearLayout {
		cfg.MortonLayout = false
	}
	if opts.DisableConsolidation {
		cfg.TFIM.Consolidate = false
	}
	if opts.MTUs > 0 {
		cfg.TFIM.MTUs = opts.MTUs
	}
	if opts.Compressed {
		cfg.TextureCompression = true
	}
	return cfg
}

// buildDesign constructs the backend and texture path for a configuration.
func buildDesign(cfg config.Config, cubes int) (mem.Backend, gpu.TexturePath, hmc.Cube) {
	switch cfg.Design {
	case config.Baseline:
		d := dram.DefaultConfig()
		d.MemClockGHz = cfg.MemClockGHz
		backend := dram.New(d)
		return backend, tfim.NewBaselinePath(cfg, backend), nil
	case config.BPIM:
		cube := newCube(cfg, cubes)
		return cube, tfim.NewBaselinePath(cfg, cube), cube
	case config.STFIM:
		cube := newCube(cfg, cubes)
		return cube, tfim.NewSTFIMPath(cfg, cube), cube
	case config.ATFIM:
		cube := newCube(cfg, cubes)
		return cube, tfim.NewATFIMPath(cfg, cube), cube
	default:
		panic(fmt.Sprintf("core: unknown design %v", cfg.Design))
	}
}

func newCube(cfg config.Config, cubes int) hmc.Cube {
	h := hmc.DefaultConfig()
	h.Vaults = cfg.HMCVaults
	h.BanksPerVault = cfg.HMCBanksPerVault
	h.ExternalGBs = cfg.HMCExternalGBs
	h.InternalGBs = cfg.HMCInternalGBs
	h.MemClockGHz = cfg.MemClockGHz
	if cubes > 1 {
		return hmc.NewArray(cubes, h)
	}
	return hmc.New(h)
}

// sceneCache memoizes generated scenes; generation is deterministic per
// spec and scenes are immutable once addresses are assigned, so runs of
// different designs share them. The mutex guards only the map: each key's
// entry is built once, outside it, and concurrent callers of that key wait
// on the entry, so a cold scene never blocks lookups of other keys.
var (
	sceneCacheMu sync.Mutex
	sceneCache   = map[string]*sceneEntry{}
	// generateScene builds an uncached scene; tests replace it.
	generateScene = scene.Generate
)

type sceneEntry struct {
	once sync.Once
	sc   *scene.Scene
}

func cachedScene(spec scene.Spec, compressed bool) *scene.Scene {
	key := fmt.Sprintf("%s/%d/%v/%v", spec.Name, spec.Seed, spec.Layout, compressed)
	sceneCacheMu.Lock()
	e := sceneCache[key]
	if e == nil {
		e = new(sceneEntry)
		sceneCache[key] = e
	}
	sceneCacheMu.Unlock()
	e.once.Do(func() {
		sc := generateScene(spec)
		if compressed {
			for _, tx := range sc.Textures {
				tx.Compress()
			}
		}
		sc.AssignTextureAddresses(mem.RegionTexture)
		e.sc = sc
	})
	return e.sc
}

// defaultShards is the Shards value applied when Options.Shards is zero;
// non-positive means runtime.GOMAXPROCS(0).
var defaultShards atomic.Int32

// SetDefaultShards sets the process-wide shard count used when
// Options.Shards is zero. Non-positive restores the GOMAXPROCS default.
func SetDefaultShards(n int) { defaultShards.Store(int32(n)) }

// DefaultShards returns the shard count applied when Options.Shards is
// zero: the SetDefaultShards override, else GOMAXPROCS.
func DefaultShards() int {
	if n := int(defaultShards.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Run simulates a workload under the given options and returns its
// measurements.
func Run(wl workload.Workload, opts Options) (*Result, error) {
	return RunContext(context.Background(), wl, opts)
}

// RunContext is Run with cancellation: the context is checked between
// frames and at tile-group boundaries inside each frame, so an abandoned
// run stops within one group's worth of work.
func RunContext(ctx context.Context, wl workload.Workload, opts Options) (*Result, error) {
	cfg := buildConfig(opts)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec := wl.Spec
	if !cfg.MortonLayout {
		spec.Layout = texture.LayoutLinear
	}
	return runScene(ctx, cachedScene(spec, cfg.TextureCompression), wl, cfg, opts)
}

// RunScene simulates a pre-built scene (used by trace replay and tests).
func RunScene(sc *scene.Scene, wl workload.Workload, opts Options) (*Result, error) {
	cfg := buildConfig(opts)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return runScene(context.Background(), sc, wl, cfg, opts)
}

func runScene(ctx context.Context, sc *scene.Scene, wl workload.Workload, cfg config.Config, opts Options) (*Result, error) {
	backend, path, cube := buildDesign(cfg, opts.HMCCubes)
	pipe := gpu.NewPipeline(cfg, wl.Width, wl.Height, backend, path)
	shards := opts.Shards
	if shards == 0 {
		shards = DefaultShards()
	}
	if shards < 1 {
		shards = 1
	}
	pipe.Shards = shards
	onProgress, onFrameEnd := simTelemetry(cfg.Design)
	if user := opts.Progress; user != nil {
		pipe.Progress = func(pr gpu.Progress) {
			onProgress(pr)
			user(pr)
		}
	} else {
		pipe.Progress = onProgress
	}
	pipe.NewWorker = func() (mem.Backend, gpu.TexturePath, func() uint64) {
		wb, wp, wcube := buildDesign(cfg, opts.HMCCubes)
		var internal func() uint64
		if wcube != nil {
			internal = func() uint64 { return wcube.TotalStats().VaultBytes }
		}
		return wb, wp, internal
	}
	var profiler *gpu.FrameProfiler
	if opts.Profile != nil {
		profiler = &gpu.FrameProfiler{}
		pipe.Profiler = profiler
	}
	if opts.Trace != nil {
		pipe.SetTracer(opts.Trace)
		if ta, ok := backend.(obs.TraceAttacher); ok {
			ta.SetTracer(opts.Trace)
		}
		if ta, ok := path.(obs.TraceAttacher); ok {
			ta.SetTracer(opts.Trace)
		}
	}

	frames := opts.Frames
	if frames < 1 {
		frames = 1
	}
	start := opts.FrameIndex
	if start == 0 {
		start = len(sc.Cameras) / 2
	}
	if start >= len(sc.Cameras) {
		start = len(sc.Cameras) - 1
	}

	var acc *gpu.FrameResult
	for f := 0; f < frames; f++ {
		idx := start + f
		if idx >= len(sc.Cameras) {
			idx = len(sc.Cameras) - 1
		}
		res, err := pipe.RenderFrameContext(ctx, sc, idx)
		if err != nil {
			return nil, err
		}
		onFrameEnd(backend)
		// Merge the frame-level texture path's traffic into the frame
		// traffic (worker-path traffic is already folded in per group).
		if tr, ok := path.(trafficReporter); ok {
			res.Traffic.Add(tr.Traffic())
		}
		// Fill the external/internal byte counts for the energy model; the
		// pipeline already merged the worker cubes' internal bytes, the
		// frame-level cube adds the geometry/resolve share.
		res.Activity.ExternalBytes = res.Traffic.Total()
		if cube != nil {
			res.Activity.InternalBytes += cube.TotalStats().VaultBytes
		}
		// Stamp the finished frame's off-chip traffic breakdown into its
		// anatomy (named like the metrics/v1 traffic counters).
		if profiler != nil {
			if frames := profiler.Frames(); len(frames) > 0 {
				tb := map[string]uint64{}
				for c := mem.Class(0); c < mem.NumClasses; c++ {
					for _, k := range []mem.Kind{mem.Read, mem.Write} {
						if b := res.Traffic.Bytes(c, k); b > 0 {
							tb[fmt.Sprintf("%s.%s", c, k)] = b
						}
					}
				}
				frames[len(frames)-1].TrafficBytes = tb
			}
		}
		if acc == nil {
			acc = res
		} else {
			acc.Accumulate(res)
		}
	}

	model := energy.DefaultModel()
	model.ClockGHz = cfg.GPU.ClockGHz
	bd := model.Estimate(acc, cfg.UsesHMC())

	if opts.Profile != nil {
		build := obs.Build()
		*opts.Profile = obs.FrameProfile{
			Schema:     obs.FrameProfileSchema,
			Workload:   wl.Name(),
			Design:     cfg.Design.String(),
			SimVersion: SimVersion,
			Build:      &build,
			Frames:     profiler.Frames(),
		}
	}

	return &Result{
		Workload: wl,
		Design:   cfg.Design,
		Options:  opts,
		Frame:    acc,
		Energy:   bd,
		Image:    acc.Image,
		path:     path,
		backend:  backend,
	}, nil
}
