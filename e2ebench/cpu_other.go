//go:build !amd64

package main

// cpuFeatures reports no vector extensions off amd64.
func cpuFeatures() []string { return nil }
