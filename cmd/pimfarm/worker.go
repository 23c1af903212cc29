package main

// pimfarm worker: the pull side of the distributed farm. A worker process
// polls the coordinator for leases, serves each granted job from the
// shared store when one is attached (-store) or simulates it and writes it
// through, and streams progress and the encoded result back over HTTP.
// Heartbeats renew the lease while the simulation runs; if the
// coordinator declares the lease gone (job canceled, or this worker was
// presumed dead), execution is aborted promptly.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/farm/dist"
	"repro/internal/obs"
	"repro/internal/obs/dtrace"
	"repro/internal/obs/slogx"
	"repro/internal/store"
	"repro/internal/suite"
)

// workerMain is the `pimfarm worker` entry point.
func workerMain(args []string) {
	fs := flag.NewFlagSet("pimfarm worker", flag.ExitOnError)
	var (
		coordURL = fs.String("coordinator", "", "coordinator base URL (required), e.g. http://localhost:8080")
		id       = fs.String("id", "", "worker identity shown in GET /v1/workers (default host-pid)")
		storeDir = fs.String("store", "", "durable result-store directory; share it with the coordinator so results are warm hits everywhere")
		jobs     = fs.Int("jobs", 1, "leases executed concurrently")
		shards   = fs.Int("shards", 0, "frame tile-scan shards per simulation (0 = GOMAXPROCS)")
		poll     = fs.Duration("poll", dist.DefaultPoll, "idle poll interval")
		logLevel = fs.String("log-level", "info", "log verbosity: debug, info, warn, or error")
		version  = fs.Bool("version", false, "print version and exit")
	)
	_ = fs.Parse(args)
	if *version {
		fmt.Printf("pimfarm worker %s (%s)\n", obs.Version(), obs.GoVersion())
		return
	}
	if *coordURL == "" {
		fatal(fmt.Errorf("worker: -coordinator URL is required"))
	}
	level, err := slogx.ParseLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	log := slogx.New(os.Stderr, slogx.Options{Level: level, Timestamps: true})
	slog.SetDefault(log)
	core.SetDefaultShards(*shards)
	if *id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	var st *store.Store
	if *storeDir != "" {
		// A job another node already computed is a disk hit here, and every
		// result this worker computes lands in the shared directory for the
		// coordinator and its siblings to serve warm.
		if st, err = store.Open(store.Config{Dir: *storeDir}); err != nil {
			fatal(err)
		}
		log.Info("store open", "dir", st.Dir(), "entries", st.Len(), "bytes", st.Size())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w := &dist.Worker{
		Client: &dist.Client{Base: *coordURL, Worker: *id},
		Slots:  *jobs,
		Poll:   *poll,
		Log:    log,
		Exec:   execGrant(st),
	}
	log.Info("worker starting", "id", *id, "coordinator", *coordURL,
		"jobs", *jobs, "version", obs.Version())
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		fatal(err)
	}
	log.Info("worker stopped", "id", *id)
}

// execGrant returns the ExecFunc for one leased job: the grant spec is
// the canonical pim-render/spec/v1 document (suite.Spec) the coordinator
// accepted, the result payload the pim-render/result/v1 document the
// coordinator decodes. Decoding is lenient (unknown fields ignored) so a
// slightly newer coordinator can still feed an older worker; the spec then
// re-resolves through the same Spec → Options/CacheKey mapping the
// coordinator used, and the worker refuses a grant whose spec keys
// differently (simulator version skew). With a store (st non-nil) a stored
// result is returned without simulating and a computed one is written
// through. The simulation runs under the lease's ctx, so a lost lease
// stops it. Simulation progress flows through the progress callback,
// which the coordinator republishes onto the job's SSE stream.
//
// When the grant carried a sampled trace context, dist.Worker put a span
// recorder on ctx: the resolve/tiers/run/simulate-stage spans recorded
// here ship back to the coordinator inside the completion request and
// become the worker half of GET /v1/jobs/{id}/trace. Recording is
// observational-only — it never touches the cache key or the result.
func execGrant(st *store.Store) dist.ExecFunc {
	tier := core.StoreTier(st)
	return func(ctx context.Context, g *dist.Grant, progress func(any)) ([]byte, error) {
		rec := dtrace.RecorderFrom(ctx)
		resolveStart := time.Now()
		var req suite.Spec
		if err := json.Unmarshal(g.Spec, &req); err != nil {
			return nil, fmt.Errorf("decode spec: %w", err)
		}
		rv, err := req.Resolve()
		if err != nil {
			return nil, err
		}
		rec.Span("worker", "resolve", resolveStart, time.Now(), nil)
		if rv.Key != g.Key {
			return nil, fmt.Errorf("spec keys to %q but lease granted %q (simulator version skew?)", rv.Key, g.Key)
		}
		opts := rv.Options
		var stages *dtrace.StageTracker
		if rec != nil {
			stages = &dtrace.StageTracker{}
		}
		opts.Progress = func(p core.Progress) {
			stages.Observe(p.Frame, string(p.Stage), time.Now())
			progress(p)
		}
		start := time.Now()
		var res *core.Result
		if tier != nil {
			if v, ok := tier.Get(g.Key); ok {
				res = v.(*core.Result)
			}
		}
		if res == nil {
			if res, err = core.RunContext(ctx, rv.Workload, opts); err == nil && tier != nil {
				tier.Put(g.Key, res)
			}
		}
		if rec != nil {
			recordRunSpans(rec, stages, start, time.Now(), err)
		}
		if err != nil {
			return nil, err
		}
		slogx.From(ctx).Debug("job executed", "job", g.Job, "key", g.Key, "restored", res.Restored(),
			"dur", time.Since(start).Round(time.Millisecond).String())
		encStart := time.Now()
		payload, err := core.EncodeResultPayload(res)
		rec.Span("worker", "encode", encStart, time.Now(), nil)
		return payload, err
	}
}
