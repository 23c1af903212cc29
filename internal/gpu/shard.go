package gpu

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/raster"
	"repro/internal/scene"
	"repro/internal/shader"
)

// groupTiles is the supertile edge in raster tiles: a group of
// groupTiles x groupTiles tiles (64x64 pixels) is the hermetic unit of
// parallel fragment work. The group size is a model constant — it does NOT
// change with Options.Shards — so the partitioning, and therefore every
// counter, is identical at any shard count; Shards only decides how many
// host goroutines drain the fixed group list.
const groupTiles = 4

// groupPx is the supertile edge in pixels.
const groupPx = groupTiles * raster.TileSize

// workerTraceCap bounds each worker's private span ring. Workers trace
// into a private ring so group-local cycle stamps can be rebased onto the
// frame timeline at merge time regardless of which goroutine ran the group.
const workerTraceCap = 1 << 15

// workItem is one tile of one setup triangle. Items within a group keep
// the global triangle-then-tile scan order, so a tile's fragment sequence
// is identical to a serial scan of the whole frame.
type workItem struct {
	st   int32
	tile raster.Tile
}

// tileGroup is one supertile group's work list plus its pixel origin on
// screen (the identity per-group attribution profiles key heatmaps by).
type tileGroup struct {
	x0, y0 int
	items  []workItem
}

// groupResult captures one hermetically simulated tile group: the group's
// duration on the frame's fragment timeline, and every counter it
// accumulated from local time zero.
type groupResult struct {
	duration int64
	traffic  mem.Traffic
	activity Activity
	raster   raster.Stats
	caches   map[string]cache.Stats
	events   []obs.Event
	// timelines holds the worker backend's group-local bandwidth
	// timelines when the frame is being profiled; the merge rebases them
	// onto the frame timeline at the group's offset.
	timelines map[string]obs.Timeline
}

// trafficSource matches texture paths that account their own memory
// traffic separately from the pipeline's (mirrors internal/core).
type trafficSource interface{ Traffic() *mem.Traffic }

// shardWorker owns the complete mutable per-fragment machine state: a
// private memory backend and texture path, private ROP caches, private
// shader-cluster cursors/in-flight windows, and private statistic
// accumulators. Each tile group is simulated hermetically: the worker is
// fully reset, the group runs from local cycle zero, and the group's
// counters are captured into a groupResult for the deterministic merge.
type shardWorker struct {
	p             *Pipeline
	backend       mem.Backend
	path          TexturePath
	internalBytes func() uint64 // HMC-internal byte counter; nil when absent

	rast       *raster.Rasterizer
	machine    shader.Machine
	zCache     *cache.Cache
	colorCache *cache.Cache

	// Per-cluster state.
	cursor   []float64
	horizon  []int64
	inflight [][]int64
	inflHead []int

	traffic  mem.Traffic
	activity Activity

	// Current fragment context for the TEX callback.
	curFrag    *raster.Fragment
	curTex     int
	curDone    int64
	curNow     int64
	curCluster int
	// texReq is the TEX callback's request, kept here so passing it to the
	// path through the TexturePath interface does not move it to the heap.
	texReq TexRequest

	// trace is a private ring holding group-local spans; nil when the
	// frame is not being traced or the worker shares the frame backend.
	trace        *obs.Tracer
	clusterTrack []string
}

// newShardWorker builds a worker around a backend/path pair. ownsUnits is
// true when backend/path are private to this worker (factory mode): only
// then may a private tracer be attached to them for span rebasing.
func newShardWorker(p *Pipeline, backend mem.Backend, path TexturePath, internalBytes func() uint64, ownsUnits bool) *shardWorker {
	w := &shardWorker{
		p:             p,
		backend:       backend,
		path:          path,
		internalBytes: internalBytes,
		rast:          p.rast.ShardView(),
	}
	cfg := p.Cfg
	w.zCache = cache.New(cache.Config{
		Name: "zcache", SizeBytes: cfg.GPU.ZCacheKB * 1024, Ways: 8,
		LineBytes: mem.LineSize, WriteBack: true,
	})
	w.colorCache = cache.New(cache.Config{
		Name: "colorcache", SizeBytes: cfg.GPU.ColorCacheKB * 1024, Ways: 8,
		LineBytes: mem.LineSize, WriteBack: true,
	})
	n := cfg.GPU.Clusters
	w.cursor = make([]float64, n)
	w.horizon = make([]int64, n)
	w.inflight = make([][]int64, n)
	for i := range w.inflight {
		w.inflight[i] = make([]int64, maxInflightPerCluster)
	}
	w.inflHead = make([]int, n)
	if p.trace.On() && ownsUnits {
		w.trace = obs.NewTracer(workerTraceCap)
		w.clusterTrack = make([]string, n)
		for i := range w.clusterTrack {
			w.clusterTrack[i] = fmt.Sprintf("cluster%02d", i)
		}
		if ta, ok := backend.(obs.TraceAttacher); ok {
			ta.SetTracer(w.trace)
		}
		if ta, ok := path.(obs.TraceAttacher); ok {
			ta.SetTracer(w.trace)
		}
	}
	return w
}

// resetForGroup restores the worker to its initial state so the next group
// is simulated as if on freshly powered-on hardware — the property that
// makes group results independent of which worker runs which group.
func (w *shardWorker) resetForGroup() {
	w.backend.Reset()
	w.path.Reset()
	w.zCache.Reset()
	w.colorCache.Reset()
	w.rast.ResetStats()
	for i := range w.cursor {
		w.cursor[i] = 0
		w.horizon[i] = 0
		w.inflHead[i] = 0
		ring := w.inflight[i]
		for j := range ring {
			ring[j] = 0
		}
	}
	w.traffic = mem.Traffic{}
	w.activity = Activity{}
	w.machine = shader.Machine{}
	w.machine.TexSample = w.texSample
	w.trace.Reset()
}

// runGroup simulates one tile group from local cycle zero and captures its
// duration and counters. sts is the frame's shared, read-only setup-
// triangle table.
func (w *shardWorker) runGroup(items []workItem, sts []raster.SetupTriangle) groupResult {
	w.resetForGroup()
	tracing := w.trace.On()
	clusters := w.p.Cfg.GPU.Clusters
	nextCluster := 0
	for i := range items {
		it := &items[i]
		cluster := nextCluster
		nextCluster = (nextCluster + 1) % clusters
		tileStart := int64(w.cursor[cluster])
		w.rast.ScanTile(&sts[it.st], it.tile, func(f *raster.Fragment) {
			w.shadeFragment(f, cluster)
		})
		if tracing {
			if tileEnd := int64(w.cursor[cluster]); tileEnd > tileStart {
				w.trace.Span(w.clusterTrack[cluster], "tile", tileStart, tileEnd)
			}
		}
	}

	endCompute := int64(0)
	for c := range w.cursor {
		if t := int64(math.Ceil(w.cursor[c])); t > endCompute {
			endCompute = t
		}
		if w.horizon[c] > endCompute {
			endCompute = w.horizon[c]
		}
	}
	if pathDone := w.path.EndFrame(endCompute); pathDone > endCompute {
		endCompute = pathDone
	}
	flushDone := w.flushROPCaches(endCompute)
	dur := flushDone
	if b := w.backend.BusyUntil(); b > dur {
		dur = b
	}

	gr := groupResult{duration: dur, traffic: w.traffic, raster: w.rast.Stats()}
	if tr, ok := w.path.(trafficSource); ok {
		gr.traffic.Add(tr.Traffic())
	}
	gr.activity = w.activity
	gr.activity.Path = w.path.Activity()
	gr.activity.ShaderInstrs = w.machine.InstrCount
	if w.internalBytes != nil {
		gr.activity.InternalBytes = w.internalBytes()
	}
	gr.caches = map[string]cache.Stats{
		"zcache":     w.zCache.Stats(),
		"colorcache": w.colorCache.Stats(),
	}
	for k, v := range w.path.CacheStats() {
		gr.caches[k] = v
	}
	if tracing {
		gr.events = w.trace.Events()
	}
	// Profiling: capture the backend's group-local bandwidth timelines
	// before the next group resets the worker. Reading meters never
	// mutates them, so profiled and unprofiled runs stay byte-identical.
	if w.p.Profiler != nil {
		gr.timelines = captureBackend(w.backend, profileGroupBuckets)
	}
	return gr
}

// shadeFragment runs the fragment program (issuing the texture request)
// and the ROP for one fragment on the given cluster, in group-local time.
func (w *shardWorker) shadeFragment(f *raster.Fragment, cluster int) {
	w.activity.FragmentCount++
	cfg := &w.p.Cfg.GPU

	// Per-fragment shader issue cost: the cluster's shaders process
	// ShadersPerCluster fragments in parallel.
	fsCost := float64(w.p.fs.CycleCost()) / float64(cfg.ShadersPerCluster)
	w.cursor[cluster] += fsCost
	now := int64(w.cursor[cluster])

	// Bounded in-flight window: if full, the cluster stalls until the
	// oldest outstanding request completes.
	ring := w.inflight[cluster]
	head := w.inflHead[cluster]
	if oldest := ring[head]; oldest > now {
		stall := oldest - now
		w.cursor[cluster] += float64(stall)
		now = oldest
	}

	// Per-pixel camera angle (the quantity A-TFIM tags texels with).
	f.ViewAngle = w.p.viewAngle(f)

	// Fragment shading (TEX routed through texSample).
	w.curFrag = f
	w.curTex = f.TexID
	w.curNow = now
	w.curCluster = cluster
	w.curDone = now
	w.machine.SetInput(0, shader.Vec{f.UV.X, f.UV.Y, 0, 0})
	w.machine.SetInput(1, shader.Vec{f.Color.X, f.Color.Y, f.Color.Z, f.Color.W})
	n := f.Normal.Normalize()
	w.machine.SetInput(2, shader.Vec{n.X, n.Y, n.Z, 0})
	if err := w.machine.Run(w.p.fs); err != nil {
		panic(err)
	}
	out := w.machine.Output(0)

	done := w.curDone
	ring[head] = done
	w.inflHead[cluster] = (head + 1) % len(ring)
	if done > w.horizon[cluster] {
		w.horizon[cluster] = done
	}

	// ROP: Z test + color write, through the ROP caches.
	w.ropFragment(f, out, now)
}

// texSample is the TEX instruction hook: it builds the texture request for
// the current fragment and forwards it to the worker's texture path.
func (w *shardWorker) texSample(sampler uint8, coords shader.Vec) shader.Vec {
	p := w.p
	f := w.curFrag
	texID := (w.curTex + int(sampler)) % len(p.scene.Textures)
	tex := p.scene.Textures[texID]
	scale := samplerUVScale(sampler)
	grads := textureGradients(f)
	grads.DUDX *= scale
	grads.DVDX *= scale
	grads.DUDY *= scale
	grads.DVDY *= scale
	foot := computeFootprint(tex, grads, p.effectiveMaxAniso())
	foot.Angle = f.ViewAngle
	w.texReq = TexRequest{
		Tex:     tex,
		U:       coords[0],
		V:       coords[1],
		Foot:    foot,
		Cluster: w.curCluster,
	}
	res := w.path.Sample(w.curNow, &w.texReq)
	if res.Done > w.curDone {
		w.curDone = res.Done
	}
	return shader.Vec{res.Color.R, res.Color.G, res.Color.B, res.Color.A}
}

// ropFragment performs the late Z test and color write with cache-modelled
// memory traffic. Framebuffer, depth, and HiZ writes touch only the
// fragment's own tile, so concurrent groups never overlap.
func (w *shardWorker) ropFragment(f *raster.Fragment, colorOut shader.Vec, now int64) {
	fb := w.p.fb
	idx := f.Y*fb.W + f.X
	w.activity.ZAccesses++

	// Z read (the early-Z already compared; the ROP re-checks and writes).
	zAddr := fb.DepthAddr(f.X, f.Y)
	if r := w.zCache.Access(zAddr, false); !r.Hit {
		w.backend.Access(now, mem.Request{Addr: mem.LineAddr(zAddr), Size: mem.LineSize, Class: mem.ClassZ, Kind: mem.Read})
		w.traffic.Record(mem.ClassZ, mem.Read, mem.LineSize+mem.RequestOverheadBytes)
	} else if r.Writeback {
		w.writeback(r.VictimAddr, mem.ClassZ, now)
	}
	if f.Depth >= fb.Depth[idx] {
		return // occluded
	}
	// Z write.
	if r := w.zCache.Access(zAddr, true); r.Writeback {
		w.writeback(r.VictimAddr, mem.ClassZ, now)
	}
	fb.Depth[idx] = f.Depth
	w.rast.UpdateHiZ(raster.Tile{X0: f.X &^ (raster.TileSize - 1), Y0: f.Y &^ (raster.TileSize - 1)}, tileMaxDepth(fb, f.X, f.Y))

	// Color write.
	w.activity.ColorAccesses++
	cAddr := fb.ColorAddr(f.X, f.Y)
	if r := w.colorCache.Access(cAddr, true); !r.Hit {
		// Allocate-on-write fill read.
		w.backend.Access(now, mem.Request{Addr: mem.LineAddr(cAddr), Size: mem.LineSize, Class: mem.ClassColor, Kind: mem.Read})
		w.traffic.Record(mem.ClassColor, mem.Read, mem.LineSize+mem.RequestOverheadBytes)
		if r.Writeback {
			w.writeback(r.VictimAddr, mem.ClassColor, now)
		}
	} else if r.Writeback {
		w.writeback(r.VictimAddr, mem.ClassColor, now)
	}
	fb.Color[idx] = packShaderColor(colorOut)
}

func (w *shardWorker) writeback(addr uint64, class mem.Class, now int64) {
	w.backend.Access(now, mem.Request{Addr: addr, Size: mem.LineSize, Class: class, Kind: mem.Write})
	w.traffic.Record(class, mem.Write, mem.LineSize+mem.RequestOverheadBytes)
}

// flushROPCaches drains dirty Z/color lines at group end.
func (w *shardWorker) flushROPCaches(now int64) int64 {
	end := now
	for _, addr := range w.zCache.FlushDirty() {
		done := w.backend.Access(now, mem.Request{Addr: addr, Size: mem.LineSize, Class: mem.ClassZ, Kind: mem.Write})
		w.traffic.Record(mem.ClassZ, mem.Write, mem.LineSize+mem.RequestOverheadBytes)
		if done > end {
			end = done
		}
	}
	for _, addr := range w.colorCache.FlushDirty() {
		done := w.backend.Access(now, mem.Request{Addr: addr, Size: mem.LineSize, Class: mem.ClassColor, Kind: mem.Write})
		w.traffic.Record(mem.ClassColor, mem.Write, mem.LineSize+mem.RequestOverheadBytes)
		if done > end {
			end = done
		}
	}
	return end
}

// binTriangles performs serial triangle setup and bins every covered tile
// into its supertile group, preserving the global triangle-then-tile scan
// order within each group. It returns the setup stage's cycle cost, the
// shared read-only setup-triangle table, and the non-empty groups in fixed
// screen order.
func (p *Pipeline) binTriangles(s *scene.Scene, verts []raster.Vertex) (int64, []raster.SetupTriangle, []tileGroup) {
	clusters := p.Cfg.GPU.Clusters
	setupCycles := int64(math.Ceil(float64(len(s.Mesh.Triangles)*triSetupCycles) / float64(clusters*clusters)))

	groupsX := (p.fb.W + groupPx - 1) / groupPx
	groupsY := (p.fb.H + groupPx - 1) / groupPx
	bins := make([][]workItem, groupsX*groupsY)
	var sts []raster.SetupTriangle
	for _, tri := range s.Mesh.Triangles {
		tv := [3]raster.Vertex{verts[tri.V[0]], verts[tri.V[1]], verts[tri.V[2]]}
		for _, st := range p.rast.Setup(tv, tri.TexID) {
			stIdx := int32(len(sts))
			sts = append(sts, st)
			for _, tile := range st.Tiles() {
				g := (tile.Y0/groupPx)*groupsX + tile.X0/groupPx
				bins[g] = append(bins[g], workItem{st: stIdx, tile: tile})
			}
		}
	}
	groups := make([]tileGroup, 0, len(bins))
	for g, b := range bins {
		if len(b) > 0 {
			groups = append(groups, tileGroup{
				x0:    (g % groupsX) * groupPx,
				y0:    (g / groupsX) * groupPx,
				items: b,
			})
		}
	}
	return setupCycles, sts, groups
}

// runGroups drains the fixed group list with p.Shards worker goroutines
// and returns per-group results indexed in group order. Cancellation is
// observed at group boundaries. onGroup, when non-nil, is called with
// each group's duration as it completes (from worker goroutines in the
// parallel path); it must not touch simulator state.
func (p *Pipeline) runGroups(ctx context.Context, sts []raster.SetupTriangle, groups []tileGroup, onGroup func(int64)) ([]groupResult, error) {
	results := make([]groupResult, len(groups))
	if len(groups) == 0 {
		return results, ctx.Err()
	}

	if p.NewWorker == nil {
		// No worker factory: run every group serially on the frame-level
		// backend/path. Still hermetic and deterministic (the units are
		// reset around each group), but a single goroutine regardless of
		// Shards since the units cannot be replicated.
		w := newShardWorker(p, p.Backend, p.Path, nil, false)
		for g := range groups {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			results[g] = w.runGroup(groups[g].items, sts)
			if onGroup != nil {
				onGroup(results[g].duration)
			}
		}
		// Leave the shared units clean so frame-level consumers (resolve,
		// path traffic readers) do not observe — or double count — the
		// last group's state.
		w.backend.Reset()
		w.path.Reset()
		return results, nil
	}

	shards := p.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > len(groups) {
		shards = len(groups)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			backend, path, internalBytes := p.NewWorker()
			w := newShardWorker(p, backend, path, internalBytes, true)
			for {
				if ctx.Err() != nil {
					return
				}
				g := int(next.Add(1)) - 1
				if g >= len(groups) {
					return
				}
				results[g] = w.runGroup(groups[g].items, sts)
				if onGroup != nil {
					onGroup(results[g].duration)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
