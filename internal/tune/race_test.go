//go:build race

package tune

// raceEnabled reports a -race build, which slows the simulator about
// twentyfold; tests that simulate whole layers shrink their problems.
const raceEnabled = true
