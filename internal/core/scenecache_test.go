package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scene"
)

// TestCachedSceneSingleGenerationPerKey checks that concurrent callers of
// one key share a single generation, and that a lookup of a cached key
// returns while another key is still generating.
func TestCachedSceneSingleGenerationPerKey(t *testing.T) {
	var slowCalls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	orig := generateScene
	generateScene = func(spec scene.Spec) *scene.Scene {
		switch spec.Name {
		case "cache-test-fast":
			return &scene.Scene{Name: spec.Name}
		case "cache-test-slow":
			if slowCalls.Add(1) == 1 {
				close(started)
			}
			<-release
			return &scene.Scene{Name: spec.Name}
		}
		return orig(spec)
	}
	fast := scene.Spec{Name: "cache-test-fast", Seed: 1}
	slow := scene.Spec{Name: "cache-test-slow", Seed: 1}
	forget := func() {
		sceneCacheMu.Lock()
		defer sceneCacheMu.Unlock()
		for key := range sceneCache {
			if strings.HasPrefix(key, "cache-test-") {
				delete(sceneCache, key)
			}
		}
	}
	forget()
	t.Cleanup(func() {
		generateScene = orig
		forget()
	})
	// Registered last so it runs first: a failing test must not leave the
	// slow generation blocked.
	var unblock sync.Once
	t.Cleanup(func() { unblock.Do(func() { close(release) }) })

	cached := cachedScene(fast, false)

	const callers = 8
	got := make([]*scene.Scene, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = cachedScene(slow, false)
		}(i)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("slow generation never started")
	}

	hit := make(chan *scene.Scene, 1)
	go func() { hit <- cachedScene(fast, false) }()
	select {
	case sc := <-hit:
		if sc != cached {
			t.Error("cached key returned a different scene")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("lookup of a cached key blocked behind another key's generation")
	}

	unblock.Do(func() { close(release) })
	wg.Wait()
	if n := slowCalls.Load(); n != 1 {
		t.Errorf("%d generations for one key, want 1", n)
	}
	for i, sc := range got {
		if sc == nil || sc != got[0] {
			t.Fatalf("caller %d got scene %p, want %p", i, sc, got[0])
		}
	}
}
