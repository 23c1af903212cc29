package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// spanLog keeps the benchmark's own spans in memory: one trace ID per op,
// spans at each layer boundary the benchmark calls across. A nil *spanLog
// records nothing, so untraced runs pay no cost.
type spanLog struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	traces int
}

type span struct {
	id, parent int
	trace      string
	name       string
	track      string
	start, end time.Time
	args       map[string]any
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// newTrace mints the trace ID of one op.
func (l *spanLog) newTrace() string {
	if l == nil {
		return ""
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.traces++
	return fmt.Sprintf("op-%06d", l.traces)
}

// add records a span and returns its ID (0 when l is nil), to be passed
// as the parent of the spans it caused.
func (l *spanLog) add(trace string, parent int, track, name string, start, end time.Time, args map[string]any) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{id: id, parent: parent, trace: trace, name: name, track: track, start: start, end: end, args: args})
	return id
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type chromeMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// begin opens a span whose end is not known yet, so the spans it causes
// can name it as their parent; end closes it.
func (l *spanLog) begin(trace string, parent int, track, name string, start time.Time) int {
	return l.add(trace, parent, track, name, start, start, nil)
}

func (l *spanLog) end(id int, end time.Time, args map[string]any) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].end = end
	l.spans[id-1].args = args
}

// writeChrome writes the spans as Chrome trace-event JSON: one thread per
// track, each span's trace ID, span ID and parent in its args.
func (l *spanLog) writeChrome(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	tids := map[string]int{}
	var events []any
	for _, s := range l.spans {
		tid, ok := tids[s.track]
		if !ok {
			tid = len(tids) + 1
			tids[s.track] = tid
			events = append(events, chromeMeta{Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": s.track}})
		}
		args := map[string]any{"trace_id": s.trace, "span_id": s.id, "parent_id": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: "perfbench", Ph: "X",
			TS:  float64(s.start.Sub(l.t0)) / float64(time.Microsecond),
			Dur: float64(s.end.Sub(s.start)) / float64(time.Microsecond),
			PID: 1, TID: tid, Args: args,
		})
	}
	body, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
