//go:build race

package store

// raceDetector is set when the tests run under -race, which slows a dense
// scan enough that the largest corpora shrink.
const raceDetector = true
