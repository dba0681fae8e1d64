//go:build race

package main

// raceEnabled reports a build with the race detector, which slows the
// process several times over.
const raceEnabled = true
