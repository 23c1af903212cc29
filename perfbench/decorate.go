package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/gpu"
	"repro/internal/hmc"
	"repro/internal/mem"
	"repro/internal/scene"
	"repro/internal/tfim"
	"repro/internal/workload"
)

// layerClock accumulates one pipeline worker's calls into the texture path
// and the memory device, with their host time. Each worker owns its clock,
// so the counters need no synchronization.
type layerClock struct {
	sampleCalls, sampleNs int64
	memCalls, memNs       int64
	memInSampleNs         int64 // memory time nested inside Sample
	inSample              bool
}

func (c *layerClock) memDone(t time.Time) {
	d := int64(time.Since(t))
	c.memCalls++
	c.memNs += d
	if c.inSample {
		c.memInSampleNs += d
	}
}

func (c *layerClock) add(o *layerClock) {
	c.sampleCalls += o.sampleCalls
	c.sampleNs += o.sampleNs
	c.memCalls += o.memCalls
	c.memNs += o.memNs
	c.memInSampleNs += o.memInSampleNs
}

// trafficPath is a texture path that accounts its own memory traffic,
// which the pipeline merges into the frame's traffic. Every tfim path is
// one.
type trafficPath interface {
	gpu.TexturePath
	Traffic() *mem.Traffic
}

// timedPath is a pass-through gpu.TexturePath that times Sample.
type timedPath struct {
	inner trafficPath
	c     *layerClock
}

func (p *timedPath) Name() string { return p.inner.Name() }

func (p *timedPath) Sample(now int64, req *gpu.TexRequest) gpu.TexResult {
	t := time.Now()
	p.c.inSample = true
	res := p.inner.Sample(now, req)
	p.c.inSample = false
	p.c.sampleCalls++
	p.c.sampleNs += int64(time.Since(t))
	return res
}

func (p *timedPath) EndFrame(now int64) int64 { return p.inner.EndFrame(now) }

func (p *timedPath) Activity() gpu.PathActivity { return p.inner.Activity() }

func (p *timedPath) CacheStats() map[string]cache.Stats { return p.inner.CacheStats() }

func (p *timedPath) Reset() { p.inner.Reset() }

func (p *timedPath) Traffic() *mem.Traffic { return p.inner.Traffic() }

// timedBackend is a pass-through mem.Backend that times Access.
type timedBackend struct {
	mem.Backend
	c *layerClock
}

func (b *timedBackend) Access(now int64, req mem.Request) int64 {
	t := time.Now()
	done := b.Backend.Access(now, req)
	b.c.memDone(t)
	return done
}

// timedCube is a pass-through hmc.Cube that times every access and link
// packet.
type timedCube struct {
	hmc.Cube
	c *layerClock
}

func (h *timedCube) Access(now int64, req mem.Request) int64 {
	t := time.Now()
	done := h.Cube.Access(now, req)
	h.c.memDone(t)
	return done
}

func (h *timedCube) InternalAccess(now int64, req mem.Request) int64 {
	t := time.Now()
	done := h.Cube.InternalAccess(now, req)
	h.c.memDone(t)
	return done
}

func (h *timedCube) SendPacketTo(now int64, addr uint64, payloadBytes int) int64 {
	t := time.Now()
	done := h.Cube.SendPacketTo(now, addr, payloadBytes)
	h.c.memDone(t)
	return done
}

func (h *timedCube) ReturnPacketFrom(now int64, addr uint64, payloadBytes int) int64 {
	t := time.Now()
	done := h.Cube.ReturnPacketFrom(now, addr, payloadBytes)
	h.c.memDone(t)
	return done
}

// buildTimed builds one design's memory device and texture path, both
// wrapped in timing decorators that report into c. It mirrors how
// internal/core wires a design with default options; only A-TFIM and
// Baseline are traced.
func buildTimed(cfg config.Config, c *layerClock) (mem.Backend, *timedPath, hmc.Cube) {
	switch cfg.Design {
	case config.Baseline:
		d := dram.DefaultConfig()
		d.MemClockGHz = cfg.MemClockGHz
		be := &timedBackend{Backend: dram.New(d), c: c}
		return be, &timedPath{inner: tfim.NewBaselinePath(cfg, be), c: c}, nil
	case config.ATFIM:
		h := hmc.DefaultConfig()
		h.Vaults = cfg.HMCVaults
		h.BanksPerVault = cfg.HMCBanksPerVault
		h.ExternalGBs = cfg.HMCExternalGBs
		h.InternalGBs = cfg.HMCInternalGBs
		h.MemClockGHz = cfg.MemClockGHz
		cube := &timedCube{Cube: hmc.New(h), c: c}
		return cube, &timedPath{inner: tfim.NewATFIMPath(cfg, cube), c: c}, cube
	}
	panic(fmt.Sprintf("perfbench: no timed build for design %v", cfg.Design))
}

// timedFrame is one decorated frame: its result, the summed layer clocks
// of every worker, and the host time and CPU it took.
type timedFrame struct {
	res   *gpu.FrameResult
	clock layerClock
	wall  time.Duration
	cpu   time.Duration
}

// renderTimed renders the workload's default frame of sc through a
// pipeline the benchmark builds itself with gpu.NewPipeline, every
// worker's texture path and memory device wrapped in timing decorators.
// The result is post-processed as internal/core does for a one-frame run,
// so it is comparable field by field with core.RunContext's Frame.
func renderTimed(ctx context.Context, sc *scene.Scene, wl workload.Workload, design config.Design, shards int) (*timedFrame, error) {
	cfg := config.Default(design)
	var (
		mu     sync.Mutex
		clocks []*layerClock
	)
	newClock := func() *layerClock {
		c := &layerClock{}
		mu.Lock()
		clocks = append(clocks, c)
		mu.Unlock()
		return c
	}
	backend, path, cube := buildTimed(cfg, newClock())
	pipe := gpu.NewPipeline(cfg, wl.Width, wl.Height, backend, path)
	pipe.Shards = shards
	pipe.NewWorker = func() (mem.Backend, gpu.TexturePath, func() uint64) {
		wb, wp, wc := buildTimed(cfg, newClock())
		var internal func() uint64
		if wc != nil {
			internal = func() uint64 { return wc.TotalStats().VaultBytes }
		}
		return wb, wp, internal
	}

	t0, cpu0 := time.Now(), selfCPU()
	res, err := pipe.RenderFrameContext(ctx, sc, len(sc.Cameras)/2)
	tf := &timedFrame{wall: time.Since(t0), cpu: selfCPU() - cpu0}
	if err != nil {
		return nil, err
	}
	res.Traffic.Add(path.Traffic())
	res.Activity.ExternalBytes = res.Traffic.Total()
	if cube != nil {
		res.Activity.InternalBytes += cube.TotalStats().VaultBytes
	}
	tf.res = res
	for _, c := range clocks {
		tf.clock.add(c)
	}
	return tf, nil
}
