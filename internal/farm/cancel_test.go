package farm

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestCancelQueuedJob: canceling a job that never reached a worker
// completes it Canceled immediately, and the worker that later dequeues
// it skips it.
func TestCancelQueuedJob(t *testing.T) {
	f := New(Config{Workers: 1, QueueDepth: 8})
	defer f.Close(context.Background())

	release := make(chan struct{})
	blocker, err := f.Submit(context.Background(), Task{
		Label: "blocker",
		Run: func(context.Context) (any, error) {
			<-release
			return "done", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := f.Submit(context.Background(), Task{
		Label: "queued",
		Run:   func(context.Context) (any, error) { return "never", nil },
	})
	if err != nil {
		t.Fatal(err)
	}

	if !f.Cancel(queued.ID()) {
		t.Fatal("Cancel(queued) = false, want true")
	}
	if _, err := queued.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled job Wait err = %v, want context.Canceled", err)
	}
	if s := queued.State(); s != Canceled {
		t.Fatalf("canceled job state = %v, want Canceled", s)
	}
	// Second cancel of a terminal job is a no-op.
	if f.Cancel(queued.ID()) {
		t.Fatal("Cancel of terminal job = true, want false")
	}

	close(release)
	if v, err := blocker.Wait(context.Background()); err != nil || v != "done" {
		t.Fatalf("blocker = %v, %v", v, err)
	}
	if c := f.Counters(); c.Canceled != 1 || c.Done != 1 {
		t.Fatalf("counters canceled=%d done=%d, want 1/1", c.Canceled, c.Done)
	}
}

// TestCancelRunningJob: canceling a running job fires its context; when
// the Run returns the error, the job completes Canceled (not Failed).
func TestCancelRunningJob(t *testing.T) {
	f := New(Config{Workers: 1})
	defer f.Close(context.Background())

	started := make(chan struct{})
	j, err := f.Submit(context.Background(), Task{
		Label: "running",
		Run: func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if !f.Cancel(j.ID()) {
		t.Fatal("Cancel(running) = false, want true")
	}
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait err = %v, want context.Canceled", err)
	}
	if s := j.State(); s != Canceled {
		t.Fatalf("state = %v, want Canceled", s)
	}
	if c := f.Counters(); c.Canceled != 1 || c.Failed != 0 {
		t.Fatalf("counters canceled=%d failed=%d, want 1/0", c.Canceled, c.Failed)
	}
}

// TestCancelDoesNotRetry: a canceled job is never retried, even with a
// generous retry budget.
func TestCancelDoesNotRetry(t *testing.T) {
	f := New(Config{Workers: 1, Retries: 5, Backoff: time.Millisecond})
	defer f.Close(context.Background())

	started := make(chan struct{})
	j, err := f.Submit(context.Background(), Task{
		Label: "cancel-no-retry",
		Run: func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, errors.New("transient-looking failure")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if !f.Cancel(j.ID()) {
		t.Fatal("Cancel = false, want true")
	}
	if _, err := j.Wait(context.Background()); err == nil {
		t.Fatal("canceled job reported no error")
	}
	if s := j.State(); s != Canceled {
		t.Fatalf("state = %v, want Canceled", s)
	}
	v := j.View()
	if v.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (canceled jobs must not retry)", v.Attempts)
	}
	if c := f.Counters(); c.Retries != 0 {
		t.Fatalf("farm retries = %d, want 0", c.Retries)
	}
}

// TestCancelUnknownJob: unknown ids are rejected without effect.
func TestCancelUnknownJob(t *testing.T) {
	f := New(Config{Workers: 1})
	defer f.Close(context.Background())
	if f.Cancel("job-999999") {
		t.Fatal("Cancel(unknown) = true, want false")
	}
}

// TestCancelCompletedJobKeepsResult: canceling after completion neither
// flips the state nor clobbers the value.
func TestCancelCompletedJobKeepsResult(t *testing.T) {
	f := New(Config{Workers: 1})
	defer f.Close(context.Background())

	j, err := f.Submit(context.Background(), Task{
		Label: "done",
		Run:   func(context.Context) (any, error) { return 42, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.Cancel(j.ID()) {
		t.Fatal("Cancel(done) = true, want false")
	}
	if v, err := j.Result(); err != nil || v != 42 {
		t.Fatalf("result = %v, %v after cancel attempt", v, err)
	}
}

// TestCancelLeaderPromotesFollower: canceling a dedup leader cancels that
// job alone. A follower that attached to it (nobody canceled the
// follower) is promoted, runs the task itself and ends Done — whether the
// leader was canceled mid-run or while still queued.
func TestCancelLeaderPromotesFollower(t *testing.T) {
	for _, running := range []bool{true, false} {
		name := "queued"
		if running {
			name = "running"
		}
		t.Run(name, func(t *testing.T) {
			f := New(Config{Workers: 1})
			defer f.Close(context.Background())

			// A keyless blocker holds the only worker when the leader
			// must stay queued.
			release := make(chan struct{})
			if !running {
				if _, err := f.Submit(context.Background(), Task{
					Run: func(context.Context) (any, error) { <-release; return nil, nil },
				}); err != nil {
					t.Fatal(err)
				}
			}
			started := make(chan struct{}, 2)
			var calls atomic.Int32
			task := Task{
				Key: "cell",
				Run: func(ctx context.Context) (any, error) {
					if calls.Add(1) == 1 && running {
						started <- struct{}{}
						<-ctx.Done()
						return nil, ctx.Err()
					}
					return "result", nil
				},
			}
			leader, err := f.Submit(context.Background(), task)
			if err != nil {
				t.Fatal(err)
			}
			if running {
				<-started
			}
			follower, err := f.Submit(context.Background(), task)
			if err != nil {
				t.Fatal(err)
			}
			if !follower.View().Deduped {
				t.Fatal("second submission did not attach to the leader")
			}
			if !f.Cancel(leader.ID()) {
				t.Fatal("Cancel(leader) = false")
			}
			if _, err := leader.Wait(context.Background()); !errors.Is(err, context.Canceled) {
				t.Fatalf("leader err = %v, want context.Canceled", err)
			}
			close(release)

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			v, err := follower.Wait(ctx)
			if err != nil || v != "result" {
				t.Fatalf("follower = %v, %v (state %v); want result, nil", v, err, follower.State())
			}
			if s := follower.State(); s != Done {
				t.Fatalf("follower state = %v, want Done", s)
			}
			// The promoted follower's result is cached like any leader's.
			j, err := f.Submit(context.Background(), task)
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := j.Wait(ctx); v != "result" || !j.View().CacheHit {
				t.Fatalf("resubmission = %v (cache_hit %v), want a cache hit", v, j.View().CacheHit)
			}
		})
	}
}

// TestForcedShutdownEndsFollowers: a forced shutdown still ends a queued
// leader and its followers together; nothing is promoted or left pending.
func TestForcedShutdownEndsFollowers(t *testing.T) {
	f := New(Config{Workers: 1})
	release := make(chan struct{})
	defer close(release)
	if _, err := f.Submit(context.Background(), Task{
		Run: func(context.Context) (any, error) { <-release; return nil, nil },
	}); err != nil {
		t.Fatal(err)
	}
	task := Task{Key: "cell", Run: func(context.Context) (any, error) { return "never", nil }}
	leader, err := f.Submit(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := f.Submit(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	closed := make(chan error, 1)
	go func() { closed <- f.Close(ctx) }()
	for _, j := range []*Job{leader, follower} {
		wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err := j.Wait(wctx)
		wcancel()
		if !errors.Is(err, ErrShutdown) || j.State() != Canceled {
			t.Fatalf("%s: state %v err %v, want Canceled with ErrShutdown", j.ID(), j.State(), err)
		}
	}
	release <- struct{}{}
	if err := <-closed; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close = %v, want deadline exceeded", err)
	}
}
