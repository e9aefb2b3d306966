//go:build !race

package fingerprint

const raceDetector = false
