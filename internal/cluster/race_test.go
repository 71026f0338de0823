//go:build race

package cluster

func init() { raceDetector = true }
