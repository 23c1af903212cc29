//go:build race

package texture

// raceEnabled reports a -race build, whose instrumentation allocates and
// would fail the zero-allocation tests.
const raceEnabled = true
