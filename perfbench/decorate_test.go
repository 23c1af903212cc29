package main

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workload"
)

// The timing decorators must be pass-through: a decorated frame equals
// the undecorated core.RunContext frame field by field.
func TestDecoratorsLeaveResultsUnchanged(t *testing.T) {
	wl := workload.MustGet("doom3", 64, 48)
	sc := synthScene(wl)
	for _, d := range []config.Design{config.ATFIM, config.Baseline} {
		want, err := core.RunContext(context.Background(), wl, core.Options{Design: d, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		tf, err := renderTimed(context.Background(), sc, wl, d, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tf.res, want.Frame) {
			t.Errorf("%v: decorated frame differs from core.RunContext (frame sha %s vs %s)",
				d, sha256JSON(tf.res), sha256JSON(want.Frame))
		}
		if got := uint64(tf.clock.sampleCalls); got != want.Frame.Activity.Path.TexRequests {
			t.Errorf("%v: %d timed Sample calls, %d texture requests", d, got, want.Frame.Activity.Path.TexRequests)
		}
		if tf.clock.memCalls == 0 || tf.clock.memNs <= 0 || tf.clock.memInSampleNs > tf.clock.memNs {
			t.Errorf("%v: memory clock %+v", d, tf.clock)
		}
	}
}
