package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/suite"
)

// serve-local drives `pimfarm -workers 1 -shards 1`; serve-dist drives
// `pimfarm -dist -workers 1` plus one `pimfarm worker -jobs 1 -shards 1`,
// the only workload that runs the lease protocol. Both get the same
// open-loop schedule: one connection sends the hits (the serving layers
// alone: HTTP, admission, farm queue, LRU, singleflight, tracing), the
// other the misses (the same plus one simulation behind a queue).

// workerPoll is the dist worker's idle poll interval. The coordinator
// admits the next job only after the previous one completes, so the
// worker's re-poll right after a completion finds the queue empty and the
// next job waits one full poll: at the 500 ms default every miss waits
// about 500 ms and the worker serves under 2 jobs/s.
const workerPoll = 20 * time.Millisecond

// proc is one program process the benchmark started.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
	err  error
}

func startProc(r *run, name string, args ...string) (*proc, error) {
	bin := filepath.Join(r.root, ".bench_build", "bin", "pimfarm")
	logDir := filepath.Join(r.root, ".bench_build", "perfbench", "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	log, err := os.Create(filepath.Join(logDir, fmt.Sprintf("%s-%s.log", r.workload, name)))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(pinnedProcs))
	cmd.Stdout, cmd.Stderr = log, log
	// The program dies with the benchmark if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: log, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// stop asks the process to drain and exit, kills it if it has not exited
// after a grace period, and waits until it has.
func (p *proc) stop() {
	select {
	case <-p.done:
	default:
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(15 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
	p.log.Close()
}

// fleet is one running pimfarm deployment.
type fleet struct {
	base  string
	front *proc // the server, or the dist coordinator
	procs []*proc
}

func (f *fleet) stop() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		f.procs[i].stop()
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startFleet starts the workload's processes and waits for /healthz.
func startFleet(r *run, dist bool) (*fleet, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	f := &fleet{base: "http://" + addr}
	// Two admission slots: one miss and one hit are in flight at most, so
	// a hit never waits at admission behind a simulating miss and hit
	// latency measures the serving layers alone.
	args := []string{"-addr", addr, "-workers", "1", "-admit-slots", "2", "-shards", "1", "-pprof", "-log-level", "error"}
	name := "server"
	if dist {
		args = append(args, "-dist")
		name = "coordinator"
	}
	front, err := startProc(r, name, args...)
	if err != nil {
		return nil, err
	}
	f.front = front
	f.procs = append(f.procs, front)
	if dist {
		w, err := startProc(r, "worker", "worker", "-coordinator", f.base,
			"-jobs", "1", "-shards", "1", "-poll", workerPoll.String(), "-log-level", "error")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.procs = append(f.procs, w)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := scrapeClient.Get(f.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return f, nil
			}
		}
		select {
		case <-front.done:
			f.stop()
			return nil, fmt.Errorf("%s exited during start: %v", name, front.err)
		default:
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("%s: /healthz not ready after 30s", name)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// jobView is the part of a pimfarm job response the benchmark reads.
type jobView struct {
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// submit posts one spec with ?wait=true and returns the finished job.
func submit(ctx context.Context, client *http.Client, base string, sp suite.Spec) (*jobView, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs?wait=true", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var v jobView
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	if v.State != "done" {
		return &v, fmt.Errorf("job %s: %s", v.State, v.Error)
	}
	return &v, nil
}

// scrapeClient reads the servers' status endpoints outside the load phase.
var scrapeClient = &http.Client{Timeout: 30 * time.Second}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// phase counts one serve phase's requests.
type phase struct {
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// setupServe runs the set-up body setupRepeats times: start the fleet,
// wait for /healthz and warm the hot set (which synthesizes every game's
// scene in the simulating process). All but the last fleet are stopped.
func setupServe(ctx context.Context, r *run, dist bool, warm *phase) (*fleet, []float64, error) {
	var setups []float64
	client := newClient()
	for i := 0; i < setupRepeats; i++ {
		tr := r.spans.newTrace()
		t0 := time.Now()
		root := r.spans.begin(tr, 0, "setup", "setup", t0)
		f, err := startFleet(r, dist)
		if err != nil {
			return nil, nil, err
		}
		r.spans.add(tr, root, "setup", "fleet.start", t0, time.Now(), nil)
		for _, sp := range hotSet() {
			warm.Sent++
			s0 := time.Now()
			if _, err := submit(ctx, client, f.base, sp); err != nil {
				warm.Failed++
				f.stop()
				return nil, nil, fmt.Errorf("warm %s: %w", sp.Game, err)
			}
			warm.Succeeded++
			r.spans.add(tr, root, "setup", "warm "+sp.Game, s0, time.Now(), nil)
		}
		setups = append(setups, time.Since(t0).Seconds())
		r.spans.end(root, time.Now(), map[string]any{"repeat": i})
		if i == setupRepeats-1 {
			client.CloseIdleConnections()
			return f, setups, nil
		}
		f.stop()
	}
	panic("unreachable")
}

// outcome is one load-phase request.
type outcome struct {
	arrival
	latency time.Duration // from due to response read
	lag     time.Duration // late send while the connection was free
	result  json.RawMessage
	err     error
}

// drive sends one connection's arrivals in order, each at its due time or
// as soon as the previous response is read.
func drive(ctx context.Context, r *run, base string, start time.Time, arrivals []arrival) []outcome {
	client := newClient()
	defer client.CloseIdleConnections()
	out := make([]outcome, 0, len(arrivals))
	free := start
	for _, a := range arrivals {
		due := start.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		ready := due
		if free.After(ready) {
			ready = free
		}
		v, err := submit(ctx, client, base, a.spec)
		done := time.Now()
		free = done
		o := outcome{arrival: a, latency: done.Sub(due), lag: sent.Sub(ready), err: err}
		if err == nil {
			o.result = v.Result
		}
		tr := r.spans.newTrace()
		root := r.spans.add(tr, 0, "load/"+a.class(), a.class(), due, done, map[string]any{"spec": a.spec.Label()})
		r.spans.add(tr, root, "load/"+a.class(), "http", sent, done, nil)
		out = append(out, o)
	}
	return out
}

// resultHash canonicalizes a served metrics/v1 result the way
// metricsDigest does a local one.
func resultHash(raw json.RawMessage) string {
	var s obs.Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return "unhashable: " + err.Error()
	}
	s.Build = nil
	return sha256JSON(s)
}

// reference computes the unloaded in-process result hash of every spec,
// two simulations at a time.
func reference(ctx context.Context, specs []suite.Spec) (map[suite.Spec]string, error) {
	out := make(map[suite.Spec]string, len(specs))
	var (
		mu    sync.Mutex
		wg    sync.WaitGroup
		first error
	)
	next := make(chan suite.Spec)
	for w := 0; w < pinnedProcs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sp := range next {
				rv, err := sp.Resolve()
				var h string
				if err == nil {
					rv.Options.Shards = 1
					var res *core.Result
					if res, err = core.RunContext(ctx, rv.Workload, rv.Options); err == nil {
						h = metricsDigest(res)
					}
				}
				mu.Lock()
				if err != nil && first == nil {
					first = err
				}
				out[sp] = h
				mu.Unlock()
			}
		}()
	}
	for _, sp := range specs {
		next <- sp
	}
	close(next)
	wg.Wait()
	return out, first
}

// memStats reads the runtime.MemStats totals a pimfarm started with
// -pprof prints at the end of /debug/pprof/heap?debug=1.
func memStats(base string) (map[string]float64, error) {
	resp, err := scrapeClient.Get(base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimPrefix(sc.Text(), "# ")
		name, val, ok := strings.Cut(line, " = ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	if _, ok := out["TotalAlloc"]; !ok {
		return nil, errors.New("heap profile: no TotalAlloc")
	}
	return out, sc.Err()
}

func getJSON(base, path string, v any) error {
	resp, err := scrapeClient.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// farmVarz is the part of /varz the benchmark reads.
type farmVarz struct {
	Submitted uint64 `json:"submitted"`
	CacheHits uint64 `json:"cache_hits"`
}

// stageQuantiles is one span name's quantiles in /v1/traces/summary.
type stageQuantiles struct {
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
}

type traceSummary struct {
	Jobs    uint64                               `json:"jobs"`
	ByClass map[string]map[string]stageQuantiles `json:"by_class"`
}

// fleetCPU sums the CPU time of every fleet process.
func fleetCPU(f *fleet) (time.Duration, error) {
	var sum time.Duration
	for _, p := range f.procs {
		c, err := procCPU(p.pid())
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

func runServe(ctx context.Context, r *run, dist bool) error {
	arrivals := schedule(r.seed, r.seconds)
	var hits, misses []arrival
	for _, a := range arrivals {
		if a.hit {
			hits = append(hits, a)
		} else {
			misses = append(misses, a)
		}
	}
	if len(hits) < samplesFor(hitTail) || len(misses) < samplesFor(missTail) {
		return fmt.Errorf("schedule has %d hits and %d misses; the percentile rule needs %d and %d",
			len(hits), len(misses), samplesFor(hitTail), samplesFor(missTail))
	}

	var warm phase
	f, setups, err := setupServe(ctx, r, dist, &warm)
	if err != nil {
		return err
	}
	defer f.stop()
	r.set("setup_s", median(setups))
	r.detail("setup_s_samples", setups)

	var v0, v1 farmVarz
	if err := getJSON(f.base, "/varz", &v0); err != nil {
		return err
	}
	m0, err := memStats(f.base)
	if err != nil {
		return err
	}
	cpu0, err := fleetCPU(f)
	if err != nil {
		return err
	}

	// The load phase: both connections run until their last response.
	start := time.Now().Add(10 * time.Millisecond)
	var hitOut, missOut []outcome
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); hitOut = drive(ctx, r, f.base, start, hits) }()
	go func() { defer wg.Done(); missOut = drive(ctx, r, f.base, start, misses) }()
	wg.Wait()
	loadWall := time.Since(start)

	cpu1, err := fleetCPU(f)
	if err != nil {
		return err
	}
	m1, err := memStats(f.base)
	if err != nil {
		return err
	}
	if err := getJSON(f.base, "/varz", &v1); err != nil {
		return err
	}
	var sum traceSummary
	if err := getJSON(f.base, "/v1/traces/summary", &sum); err != nil {
		return err
	}
	// peak_rss_mb is the front process's: a dist worker's peak is set by
	// garbage-collection timing during scene synthesis and moves by a
	// tenth from run to run, so it is reported in the document only.
	procRSS := map[string]float64{}
	for _, p := range f.procs {
		v, err := peakRSSMB(p.pid())
		if err != nil {
			return err
		}
		procRSS[p.name] = v
	}
	r.detail("peak_rss_mb_by_process", procRSS)
	f.stop()

	// Verify every completed job against an unloaded in-process run.
	all := append(append([]outcome{}, hitOut...), missOut...)
	var specs []suite.Spec
	seen := map[suite.Spec]bool{}
	for _, o := range all {
		if o.err == nil && !seen[o.spec] {
			seen[o.spec] = true
			specs = append(specs, o.spec)
		}
	}
	v0t := time.Now()
	want, err := reference(ctx, specs)
	if err != nil {
		return fmt.Errorf("reference runs: %w", err)
	}
	r.detail("verify_s", time.Since(v0t).Seconds())
	r.detail("verified_specs", len(specs))

	var hitLat, missLat, lags []float64
	phases := map[string]*phase{"setup": &warm, "load_hit": {}, "load_miss": {}}
	for _, o := range all {
		ph, lat := phases["load_miss"], &missLat
		if o.hit {
			ph, lat = phases["load_hit"], &hitLat
		}
		ph.Sent++
		r.attempted++
		lags = append(lags, ms(o.lag))
		if o.err == nil {
			if got := resultHash(o.result); got != want[o.spec] {
				o.err = fmt.Errorf("result differs from the unloaded in-process run")
			}
		}
		if o.err != nil {
			ph.Failed++
			r.failed++
			r.fail("%s %s: %v", o.class(), o.spec.Label(), o.err)
			continue
		}
		ph.Succeeded++
		*lat = append(*lat, ms(o.latency))
	}
	r.detail("phases", phases)
	r.detail("load_wall_s", loadWall.Seconds())
	if len(missLat) == 0 || len(hitLat) == 0 {
		return fmt.Errorf("%s: no verified hit or miss", r.workload)
	}

	requests := float64(len(all))
	r.detail("wall_p50_ms", median(missLat))
	r.set("op.cpu_ms", ms(cpu1-cpu0)/requests)
	r.set("alloc_mb_per_op", (m1["TotalAlloc"]-m0["TotalAlloc"])/(1<<20)/requests)
	r.set("peak_rss_mb", procRSS[f.front.name])

	r.set("serve.hit_p50_ms", median(hitLat))
	r.set("serve.miss_p50_ms", median(missLat))
	if v, ok := tailQuantile(hitLat, hitTail); ok {
		r.set("serve.hit_p99_ms", v)
	}
	if v, ok := tailQuantile(missLat, missTail); ok {
		r.set("serve.miss_p80_ms", v)
	}
	lagP99 := quantile(lags, 0.99)
	r.set("loadgen.lag_ms_p99", lagP99)
	if lagP99 > maxLagMS {
		r.fail("generator fell behind: p99 send lag %.1f ms > %d ms", lagP99, maxLagMS)
	}
	r.detail("samples", map[string]int{"hit": len(hitLat), "miss": len(missLat)})

	dSub, dHit := v1.Submitted-v0.Submitted, v1.CacheHits-v0.CacheHits
	r.set("farm.hit_ratio", float64(dHit)/float64(dSub))
	if dSub != uint64(len(arrivals)) || dHit != uint64(len(hits)) {
		r.fail("farm counted %d submissions with %d cache hits; the schedule sent %d with %d hits",
			dSub, dHit, len(arrivals), len(hits))
	}
	r.set("runtime.mallocs_per_op", (m1["Mallocs"]-m0["Mallocs"])/requests)
	r.set("runtime.gc_cycles_per_op", (m1["NumGC"]-m0["NumGC"])/requests)

	st := sum.ByClass["interactive"]
	r.set("admit.wait_ms_p95", st["admit"].P95MS)
	r.set("farm.queue_ms_p95", st["farm/queue"].P95MS)
	r.set("core.resolve_ms_p50", st["resolve"].P50MS)
	r.set("core.run_ms_p50", st["run"].P50MS)
	r.set("core.encode_ms_p50", st["encode"].P50MS)
	r.set("dist.queue_ms_p50", st["dist/queue"].P50MS)
	r.set("dist.lease_ms_p50", st["dist/lease"].P50MS)
	r.set("dist.wire_ms_p50", st["wire/grant"].P50MS+st["wire/complete"].P50MS)
	r.detail("trace_summary_jobs", sum.Jobs)
	r.detail("trace_summary_stages", sortedKeys(st))
	return nil
}

// The tail percentiles reported for hits and misses: the highest that keep
// at least minBeyond samples beyond them in one run's schedule.
const (
	hitTail  = 0.99
	missTail = 0.80
)

// maxLagMS bounds the generator's own lateness: a run whose p99 send lag
// (time past due while its connection was free) exceeds it is invalid.
// Host CPU steal delays the generator's wake-ups by tens of milliseconds
// at times; a generator that cannot keep up falls seconds behind.
const maxLagMS = 100
