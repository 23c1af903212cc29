package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/farm"
	"repro/internal/store"
	"repro/internal/workload"
)

// The experiment sweeps (designSweep, thresholdSweep, and the per-figure
// loops) are embarrassingly parallel: every (workload, Options) cell is an
// independent simulation. They all funnel through one shared farm, which
// is also the process's only result memo: its LRU, in-flight dedup and
// durable store tier make each cell simulate once, and its worker count
// is a single process-wide knob (paperbench -parallel).

var (
	sweepMu      sync.Mutex
	sweepFarmVar *farm.Farm
	sweepWorkers int // 0 selects GOMAXPROCS
	sweepStore   *store.Store
)

// resetSweepFarm drops the shared farm so the next SweepFarm call builds
// a fresh one (empty cache, current settings); the old one drains in the
// background. Caller holds sweepMu.
func resetSweepFarm() {
	if f := sweepFarmVar; f != nil {
		sweepFarmVar = nil
		go f.Close(context.Background())
	}
}

// SetSweepParallelism sets the worker count used for experiment sweeps;
// n <= 0 restores the default (GOMAXPROCS). The sweep farm is rebuilt on
// next use.
func SetSweepParallelism(n int) {
	sweepMu.Lock()
	defer sweepMu.Unlock()
	resetSweepFarm()
	sweepWorkers = n
}

// SetResultStore attaches (or with nil detaches) the durable store behind
// RunCached: the sweep farm is rebuilt on next use with st as its second
// cache tier, consulted after a memory miss and written through after
// every computed cell.
func SetResultStore(st *store.Store) {
	sweepMu.Lock()
	defer sweepMu.Unlock()
	resetSweepFarm()
	sweepStore = st
}

// ClearRunCache empties the memoization cache by dropping the sweep farm
// (tests use it to force re-simulation and to bound memory).
func ClearRunCache() {
	sweepMu.Lock()
	defer sweepMu.Unlock()
	resetSweepFarm()
}

// SweepFarm returns the shared sweep farm, building it on first use with
// the default LRU bound and the attached result store as its tier.
func SweepFarm() *farm.Farm {
	sweepMu.Lock()
	defer sweepMu.Unlock()
	if sweepFarmVar == nil {
		sweepFarmVar = farm.New(farm.Config{
			Workers: sweepWorkers,
			Tier:    StoreTier(sweepStore),
		})
	}
	return sweepFarmVar
}

// Cell is one independent simulation of a sweep.
type Cell struct {
	Workload workload.Workload
	Options  Options
}

// task is the sweep-farm task that simulates the cell, keyed by its
// CacheKey.
func (c Cell) task() farm.Task {
	return farm.Task{
		Key:   cacheKey(c.Workload, c.Options),
		Label: fmt.Sprintf("%s/%s", c.Workload.Name(), c.Options.Design),
		Run: func(ctx context.Context) (any, error) {
			r, err := RunContext(ctx, c.Workload, c.Options)
			if err != nil {
				return nil, err
			}
			return r, nil
		},
	}
}

// RunCached is Run memoized on the sweep farm: memory LRU → durable store
// (when one is attached via SetResultStore) → compute, with the farm's
// in-flight dedup spanning all three tiers so at most one lookup or
// simulation per key is ever in flight. Computed results are written
// through to the store; corrupt or stale store entries simply miss and are
// recomputed and rewritten.
func RunCached(wl workload.Workload, opts Options) (*Result, error) {
	return RunCachedContext(context.Background(), wl, opts)
}

// RunCachedContext is RunCached with cancellation. ctx bounds only the
// caller's wait: when it ends first the caller gets ctx.Err() at once,
// while the simulation finishes on the sweep farm and is cached for the
// next caller.
func RunCachedContext(ctx context.Context, wl workload.Workload, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v, err := SweepFarm().Do(ctx, Cell{wl, opts}.task())
	if err != nil {
		return nil, err
	}
	return v.(*Result), nil
}

// Prefetch runs the given cells on the sweep farm and waits for all of
// them, returning the first error. Identical cells (within this call or
// racing with another sweep) collapse into one simulation, and results
// land in the farm's cache, so serial aggregation loops that follow hit
// it; if an entry was evicted meanwhile, RunCached simply recomputes it,
// so correctness never depends on cache residency.
func Prefetch(ctx context.Context, cells []Cell) error {
	if len(cells) < 2 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	f := SweepFarm()
	jobs := make([]*farm.Job, 0, len(cells))
	for _, c := range cells {
		j, err := f.Submit(ctx, c.task())
		if err != nil {
			return err
		}
		jobs = append(jobs, j)
	}
	var firstErr error
	for _, j := range jobs {
		if _, err := j.Wait(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
