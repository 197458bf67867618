package main

import (
	"bytes"
	"testing"
)

// TestSelfTest runs the benchmark's self-test against the repository's
// BENCHMARK.json.
func TestSelfTest(t *testing.T) {
	var log bytes.Buffer
	if err := selfTest("../BENCHMARK.json", &log); err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
}
