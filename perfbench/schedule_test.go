package main

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/suite"
)

func TestScheduleRepeatsPerSeed(t *testing.T) {
	a, b := schedule(7, 13*time.Second), schedule(7, 13*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	c := schedule(8, 13*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same spec order")
	}
	// Another seed permutes specs only: the same instants, classes and
	// multiset of specs.
	if len(a) != len(c) {
		t.Fatalf("schedule lengths %d and %d", len(a), len(c))
	}
	for i := range a {
		if a[i].due != c[i].due || a[i].hit != c[i].hit {
			t.Fatalf("arrival %d: due/class differ across seeds", i)
		}
	}
	if !reflect.DeepEqual(specMultiset(a), specMultiset(c)) {
		t.Fatal("seeds 7 and 8 send different specs")
	}
}

func specMultiset(as []arrival) []string {
	var out []string
	for _, a := range as {
		out = append(out, a.spec.Label()+"/"+string(rune('0'+a.spec.FrameIndex)))
	}
	sort.Strings(out)
	return out
}

func TestScheduleShape(t *testing.T) {
	span := 13 * time.Second
	as := schedule(1, span)
	hot := map[suite.Spec]bool{}
	for _, sp := range hotSet() {
		hot[sp] = true
	}
	cold := map[suite.Spec]bool{}
	var hits, misses int
	var last time.Duration
	for i, a := range as {
		if a.due < last && i > 0 {
			t.Fatalf("arrival %d due %v before %v", i, a.due, last)
		}
		last = a.due
		if a.due >= span {
			t.Fatalf("arrival %d due %v beyond the %v run", i, a.due, span)
		}
		if a.hit {
			hits++
			if !hot[a.spec] {
				t.Fatalf("hit %+v is not in the hot set", a.spec)
			}
			continue
		}
		misses++
		if hot[a.spec] || cold[a.spec] {
			t.Fatalf("miss %+v repeats a warmed or earlier spec", a.spec)
		}
		cold[a.spec] = true
	}
	wantMisses := len(serveGames) * len(serveDesigns) * coldFrames
	if misses != wantMisses || hits != wantMisses*hitsPerMiss {
		t.Fatalf("%d misses and %d hits; want %d and %d", misses, hits, wantMisses, wantMisses*hitsPerMiss)
	}
	if hits < samplesFor(hitTail) || misses < samplesFor(missTail) {
		t.Fatalf("%d hits and %d misses cannot report p%v and p%v", hits, misses, hitTail*100, missTail*100)
	}
}
