package tfim

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/hmc"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/texture"
)

// ATFIMPath implements the advanced texture-filtering-in-memory design of
// Section V. The filtering sequence is reordered so anisotropic filtering
// runs first, inside the HMC logic layer:
//
//  1. The GPU texture unit computes the 8 "parent texel" addresses as if
//     anisotropic filtering were disabled and probes the texture caches.
//     Cache lines carry a camera angle; a hit whose stored angle differs
//     from the fragment's by more than the threshold is demoted to a miss
//     (recalculation, Section V-C).
//  2. Missing parent texels are packed by the Offloading Unit into one
//     package (4x a read request) and sent to the cube.
//  3. In the logic layer, the Texel Generator derives each parent's child
//     texels, the Child Texel Consolidation merges duplicate fetches, the
//     vaults serve them over internal bandwidth, and the Combination Unit
//     averages children into approximated parent texels (tracked through
//     the Parent Texel Buffer).
//  4. The parent texels return to the GPU, are cached with their camera
//     angle, and feed the on-chip bilinear + trilinear filters.
type ATFIMPath struct {
	cfg     config.Config
	cube    hmc.Cube
	l1      []*cache.Cache
	l2      *cache.Cache
	units   []*unitTiming
	sampler texture.Sampler

	act     gpu.PathActivity
	traffic mem.Traffic
	upPkg   []packageMeter
	downPkg []packageMeter

	// Per-request scratch, reused so Sample never allocates. Each shard
	// worker builds its own path, so none of it is shared between
	// goroutines. parentValues holds the color of parents[i] in slot i.
	parents      [8]texture.ParentCoord
	nParents     int
	parentValues [8]texture.Color
	missing      []parentMiss
	singles      []parentMiss
	jobs         []lineJob
	granules     granuleTable

	// ptb models Parent Texel Buffer back-pressure, banked by requesting
	// texture unit so one unit's burst does not block the others (the
	// paper sizes the PTB to match the memory request queue precisely so
	// it does not become a bottleneck).
	ptb []*bufferTiming

	// Offload stage-latency diagnostics (cycles summed per stage).
	dbgPTBWait, dbgLinkUp, dbgVault, dbgLinkDown int64

	trace        *obs.Tracer
	offloadTrack []string
}

// parentMiss records one parent texel that must be computed in memory,
// its slot in the request's parent list, and the cache slots its value
// will be stored into. fullLine marks compulsory/capacity misses, for which
// the composing stage computes and returns the whole 16-texel line; angle
// recalculations recompute only the requested parent texel (Section V-C:
// "re-fetch from the HMC so that the parent texel can be recalculated").
type parentMiss struct {
	coord    texture.ParentCoord
	slot     int
	l1Line   int
	l1Off    int
	l2Line   int
	l2Off    int
	fullLine bool
}

// lineJob is one missing memory line the composing stage computes in
// full: its 16 (fewer on tiny levels) texels and the cache slots they fill.
type lineJob struct {
	lineAddr uint64
	level    int
	texels   [texture.LineTexelsPerLine]texture.LineTexel
	n        int
	l1Line   int
	l2Line   int
}

// NewATFIMPath builds the A-TFIM path over the cube.
func NewATFIMPath(cfg config.Config, cube hmc.Cube) *ATFIMPath {
	a := &ATFIMPath{
		cfg:     cfg,
		cube:    cube,
		missing: make([]parentMiss, 0, 8),
		singles: make([]parentMiss, 0, 8),
		jobs:    make([]lineJob, 0, 8),
	}
	a.upPkg = make([]packageMeter, cfg.GPU.TextureUnits)
	a.downPkg = make([]packageMeter, cfg.GPU.TextureUnits)
	perUnit := cfg.TFIM.ParentTexelBufferEntries / cfg.GPU.TextureUnits * 2
	for i := 0; i < cfg.GPU.TextureUnits; i++ {
		a.ptb = append(a.ptb, newBufferTiming(perUnit))
		a.l1 = append(a.l1, cache.New(cache.Config{
			Name:      "texL1",
			SizeBytes: cfg.GPU.TexL1KB * 1024,
			Ways:      cfg.GPU.TexL1Ways,
			LineBytes: mem.LineSize,
			AngleTags: true,
			DataLines: true,
		}))
		a.units = append(a.units, newUnitTiming(cfg.GPU.MSHRs))
	}
	a.l2 = cache.New(cache.Config{
		Name:      "texL2",
		SizeBytes: cfg.GPU.TexL2KB * 1024,
		Ways:      cfg.GPU.TexL2Ways,
		LineBytes: mem.LineSize,
		AngleTags: true,
		DataLines: true,
	})
	a.sampler = texture.Sampler{MaxAniso: cfg.GPU.MaxAniso}
	return a
}

// Name implements gpu.TexturePath.
func (a *ATFIMPath) Name() string { return "a-tfim" }

// SetTracer implements obs.TraceAttacher: every offload package round trip
// (Offloading Unit -> Texel Generator -> vaults -> Combination Unit ->
// response) becomes one span on its texture unit's offload track.
func (a *ATFIMPath) SetTracer(t *obs.Tracer) {
	a.trace = t
	a.offloadTrack = unitTracks("offload", len(a.units))
}

// Sample implements gpu.TexturePath: the Fig. 7(B)/Fig. 9 walkthrough.
func (a *ATFIMPath) Sample(now int64, req *gpu.TexRequest) gpu.TexResult {
	unit := req.Cluster % len(a.units)
	u := a.units[unit]
	accepted, issue := u.admit2(now)
	thr := a.cfg.TFIM.AngleThreshold
	angle := req.Foot.Angle

	// 1. Parent texel addresses with anisotropic filtering disabled.
	a.parents, a.nParents = texture.ParentTexelCoords(req.Tex, req.U, req.V, req.Foot)
	nParents := a.nParents
	a.act.ParentTexelsServed += uint64(nParents)
	a.act.GPUTexelFetches += uint64(nParents)

	missing := a.missing[:0]
	maxHitLat := int64(0)

	for i, pc := range a.parents[:nParents] {
		addr := req.Tex.TexelAddr(pc.Level, pc.X, pc.Y)
		off := int(addr % mem.LineSize)
		a.act.L1Accesses++
		r1 := a.l1[unit].AccessAngle(addr, false, angle, thr)
		if r1.AngleRejected {
			a.act.AngleRecalcs++
		}
		if r1.Hit && a.l1[unit].WordValid(r1.LineIndex, off) {
			a.parentValues[i] = texture.Unpack(a.l1[unit].Word(r1.LineIndex, off))
			if l1HitLatency > maxHitLat {
				maxHitLat = l1HitLatency
			}
			continue
		}
		a.act.L2Accesses++
		r2 := a.l2.AccessAngle(addr, false, angle, thr)
		if r2.AngleRejected {
			a.act.AngleRecalcs++
		}
		if r2.Hit && a.l2.WordValid(r2.LineIndex, off) {
			c := texture.Unpack(a.l2.Word(r2.LineIndex, off))
			a.parentValues[i] = c
			// Promote into L1.
			a.l1[unit].SetWord(r1.LineIndex, off, texture.Pack(c))
			if l2HitLatency > maxHitLat {
				maxHitLat = l2HitLatency
			}
			continue
		}
		missing = append(missing, parentMiss{
			coord: pc, slot: i, l1Line: r1.LineIndex, l1Off: off,
			l2Line: r2.LineIndex, l2Off: off,
			// Recalculations refresh the whole line: the line carries one
			// camera angle (Section V-D), so all of its texels are
			// recomputed under the new angle together.
			fullLine: true,
		})
	}

	a.missing = missing
	memDone := issue + maxHitLat
	if len(missing) > 0 {
		memDone = a.offload(issue, unit, req, missing)
		if hd := issue + maxHitLat; hd > memDone {
			memDone = hd
		}
	}

	// 4. On-chip bilinear + trilinear over the approximated parent texels.
	color := a.sampler.SampleAnisoReordered(req.Tex, req.U, req.V, req.Foot,
		func(_ *texture.Texture, level, x, y int, _ texture.Footprint) texture.Color {
			for i, pc := range a.parents[:a.nParents] {
				if pc.Level == level && pc.X == x && pc.Y == y {
					return a.parentValues[i]
				}
			}
			return texture.Color{}
		})

	addrCost := aluCost(nParents, a.cfg.GPU.AddrALUs)
	filterCost := aluCost(nParents, a.cfg.GPU.FilterALUs)
	a.act.GPUFilterOps += uint64(nParents)
	occ := addrCost
	if filterCost > occ {
		occ = filterCost
	}
	pipeDone := issue + pipeBaseCycles + ceilI64(addrCost+filterCost)
	done := memDone + ceilI64(filterCost)
	if pipeDone > done {
		done = pipeDone
	}
	u.retire(issue, occ, done, len(missing) > 0)

	a.act.TexRequests++
	a.act.QueueCycles += accepted - now
	if m := memDone - issue; m > 0 {
		a.act.MemCycles += m
	}
	a.act.BusyCycles += occ + float64(issue-accepted)
	recordLatency(&a.act, accepted, done)
	return gpu.TexResult{Color: color, Done: done}
}

// offload models steps 2-3 of the walkthrough: one Offloading Unit package
// carries the missing parent texels to the cube; the Texel Generator
// derives child texels; the Child Texel Consolidation merges duplicate
// fetches; the vaults serve the children internally; the Combination Unit
// averages children into parents. The composing stage groups results at
// normal-bilinear-fetch (cache line) granularity, so the whole 4x4 texel
// block of each missing line is computed and returned — one response line
// per missing line, filled into L1 and L2 with the request's camera angle.
// Returns the cycle the response reaches the GPU.
func (a *ATFIMPath) offload(now int64, unit int, req *gpu.TexRequest, missing []parentMiss) int64 {
	cubeCfg := a.cube.Config()

	// Parent Texel Buffer back-pressure.
	ptb := a.ptb[unit%len(a.ptb)]
	start := ptb.admit(now)

	// Offload package: 4x a normal read request in total size regardless
	// of parent count — the Offloading Unit's hash table packs parents as
	// offsets to the first parent's address (Section V-D) and coalesces
	// the offloads of a fragment quad into one framed package.
	reqBytes := a.cfg.TFIM.OffloadPackageFactor * cubeCfg.ReadRequestBytes
	reqPayload := reqBytes - cubeCfg.PacketHeaderBytes
	if reqPayload < 0 {
		reqPayload = 0
	}
	routeAddr := req.Tex.TexelAddr(missing[0].coord.Level, missing[0].coord.X, missing[0].coord.Y)
	arrive := a.cube.SendPacketTo(start, routeAddr, reqPayload/quadCoalesce)
	a.traffic.Record(mem.ClassTexture, mem.Write, uint32(a.upPkg[unit].bytes(reqBytes, reqBytes/quadCoalesce)))
	a.act.OffloadPackets++

	foot := req.Foot
	tex := req.Tex

	// Group compulsory misses by their containing memory line — each
	// unique line is computed once, in full (the composing stage returns
	// whole bilinear-fetch-shaped blocks). Angle recalculations recompute
	// only their single parent texel.
	jobs := a.jobs[:0]
	singles := a.singles[:0]
	for _, m := range missing {
		if !m.fullLine {
			singles = append(singles, m)
			continue
		}
		var texels [texture.LineTexelsPerLine]texture.LineTexel
		lineAddr, n := tex.LineTexels(m.coord.Level, m.coord.X, m.coord.Y, &texels)
		if hasLineJob(jobs, lineAddr) {
			// Same cache line; indices agree.
			continue
		}
		jobs = append(jobs, lineJob{lineAddr: lineAddr, level: m.coord.Level,
			texels: texels, n: n, l1Line: m.l1Line, l2Line: m.l2Line})
	}
	a.jobs, a.singles = jobs, singles

	// Texel Generator: one address computation per child texel.
	children := len(singles) * foot.N
	for i := range jobs {
		children += jobs[i].n * foot.N
	}
	genCost := ceilI64(aluCost(children, a.cfg.TFIM.TexelGenALUs))

	// Child Texel Consolidation + vault fetches over internal bandwidth,
	// at the fine internal granularity (2x2 texel blocks).
	a.granules.next()
	maxMem := arrive + genCost
	fetch := func(t *texture.Texture, level, x, y int) texture.Color {
		a.act.PIMTexelFetches++
		g := t.TexelAddr(level, x, y) &^ uint64(internalGranule-1)
		var seen *int64
		if a.cfg.TFIM.Consolidate {
			var ok bool
			if seen, ok = a.granules.slot(g); ok {
				a.act.ConsolidatedFetches++
				if *seen > maxMem {
					maxMem = *seen
				}
				return t.Texel(level, x, y)
			}
		}
		done := a.cube.InternalAccess(arrive+genCost, mem.Request{
			Addr: g, Size: internalGranule, Class: mem.ClassTexture, Kind: mem.Read,
		})
		if seen != nil {
			*seen = done
		}
		if done > maxMem {
			maxMem = done
		}
		return t.Texel(level, x, y)
	}

	// Combination Unit: average children into every parent texel of each
	// missing line, then write the line into the GPU texture caches.
	for i := range jobs {
		j := &jobs[i]
		for _, lt := range j.texels[:j.n] {
			c := texture.AverageChildren(tex, j.level, lt.X, lt.Y, foot, fetch)
			packed := texture.Pack(c)
			a.l1[unit].SetWord(j.l1Line, lt.Off, packed)
			a.l2.SetWord(j.l2Line, lt.Off, packed)
		}
	}
	// Recalculated single parents (angle mismatches).
	for _, m := range singles {
		c := texture.AverageChildren(tex, m.coord.Level, m.coord.X, m.coord.Y, foot, fetch)
		packed := texture.Pack(c)
		a.l1[unit].SetWord(m.l1Line, m.l1Off, packed)
		a.l2.SetWord(m.l2Line, m.l2Off, packed)
	}
	combCost := ceilI64(aluCost(children, a.cfg.TFIM.CombineALUs))
	a.act.PIMFilterOps += uint64(children)

	// Resolve the requested parents' values from the freshly filled lines.
	for _, m := range missing {
		a.parentValues[m.slot] = texture.Unpack(a.l1[unit].Word(m.l1Line, m.l1Off))
	}

	filtered := maxMem + combCost

	// Response: one line-sized payload per computed line plus one texel
	// per recalculated parent (grouped by the composing stage to look
	// like normal bilinear fetch results), framed once per coalesced quad.
	respPayload := len(jobs)*mem.LineSize + len(singles)*4
	done := a.cube.ReturnPacketFrom(filtered, routeAddr, respPayload)
	a.traffic.Record(mem.ClassTexture, mem.Read,
		uint32(a.downPkg[unit].bytes(respPayload+cubeCfg.PacketHeaderBytes, respPayload)))
	a.act.ResponsePackets++

	ptb.retire(done)
	if a.trace.On() {
		a.trace.SpanArg(a.offloadTrack[unit], "offload", start, done,
			"parents", int64(len(missing)))
	}
	a.act.OffloadLatencySum += done - now
	a.dbgPTBWait += start - now
	a.dbgLinkUp += arrive - start
	a.dbgVault += filtered - arrive
	a.dbgLinkDown += done - filtered
	return done
}

// EndFrame implements gpu.TexturePath.
func (a *ATFIMPath) EndFrame(now int64) int64 { return now }

// DebugString reports per-stage mean offload latencies (diagnostics).
func (a *ATFIMPath) DebugString() string {
	n := a.act.OffloadPackets
	if n == 0 {
		return ""
	}
	f := float64(n)
	return fmt.Sprintf("ptbWait=%.1f linkUp=%.1f vault=%.1f linkDown=%.1f",
		float64(a.dbgPTBWait)/f, float64(a.dbgLinkUp)/f,
		float64(a.dbgVault)/f, float64(a.dbgLinkDown)/f)
}

// Activity implements gpu.TexturePath.
func (a *ATFIMPath) Activity() gpu.PathActivity { return a.act }

// Traffic returns the parent-texel package traffic.
func (a *ATFIMPath) Traffic() *mem.Traffic { return &a.traffic }

// CacheStats implements gpu.TexturePath.
func (a *ATFIMPath) CacheStats() map[string]cache.Stats {
	agg := cache.Stats{}
	for _, c := range a.l1 {
		s := c.Stats()
		agg.Accesses += s.Accesses
		agg.Hits += s.Hits
		agg.Misses += s.Misses
		agg.Evictions += s.Evictions
		agg.AngleRejects += s.AngleRejects
	}
	return map[string]cache.Stats{"texL1": agg, "texL2": a.l2.Stats()}
}

// Reset implements gpu.TexturePath.
func (a *ATFIMPath) Reset() {
	for _, c := range a.l1 {
		c.Reset()
	}
	a.l2.Reset()
	for _, u := range a.units {
		u.reset()
	}
	for _, p := range a.ptb {
		p.reset()
	}
	for i := range a.upPkg {
		a.upPkg[i].reset()
		a.downPkg[i].reset()
	}
	a.act = gpu.PathActivity{}
	a.traffic = mem.Traffic{}
	a.dbgPTBWait, a.dbgLinkUp, a.dbgVault, a.dbgLinkDown = 0, 0, 0, 0
	a.parents, a.nParents, a.parentValues = [8]texture.ParentCoord{}, 0, [8]texture.Color{}
	a.missing, a.singles, a.jobs = a.missing[:0], a.singles[:0], a.jobs[:0]
	a.granules.next()
}

// hasLineJob reports whether jobs already computes the line at lineAddr.
func hasLineJob(jobs []lineJob, lineAddr uint64) bool {
	for i := range jobs {
		if jobs[i].lineAddr == lineAddr {
			return true
		}
	}
	return false
}

// granuleTable is the Child Texel Consolidation's record of the internal
// granules one offload has already fetched, with the cycle each fetch
// completes: an open-addressed hash table keyed by granule address. A slot
// belongs to the current offload only when stamped with the current epoch,
// so next() starts a new offload without clearing or reallocating; the
// table only grows, the first time an offload touches more granules than
// half its slots.
type granuleTable struct {
	epoch uint64
	used  int
	shift uint
	slots []granuleSlot
}

type granuleSlot struct {
	addr  uint64
	done  int64
	epoch uint64
}

// next forgets every granule recorded so far; it must precede the first
// slot call, since epoch 0 marks a never-used slot.
func (g *granuleTable) next() {
	g.epoch++
	g.used = 0
}

// slot returns the completion cycle recorded for addr in this epoch and
// true, or claims a slot for addr and returns it with false; the caller
// then stores the fetch's completion cycle through the pointer, which
// stays valid until the next call.
func (g *granuleTable) slot(addr uint64) (*int64, bool) {
	if 2*(g.used+1) > len(g.slots) {
		g.grow()
	}
	mask := uint64(len(g.slots) - 1)
	for i := (addr * 0x9e3779b97f4a7c15) >> g.shift; ; i = (i + 1) & mask {
		s := &g.slots[i]
		if s.epoch != g.epoch {
			*s = granuleSlot{addr: addr, epoch: g.epoch}
			g.used++
			return &s.done, false
		}
		if s.addr == addr {
			return &s.done, true
		}
	}
}

// grow doubles the table (64 slots at first) and re-inserts the current
// epoch's granules.
func (g *granuleTable) grow() {
	old := g.slots
	n := max(64, 2*len(old))
	g.slots = make([]granuleSlot, n)
	g.shift = uint(64 - bits.TrailingZeros(uint(n)))
	g.used = 0
	for _, s := range old {
		if s.epoch == g.epoch {
			p, _ := g.slot(s.addr)
			*p = s.done
		}
	}
}
