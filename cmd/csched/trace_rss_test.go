//go:build linux

package main

import (
	"context"
	"os"
	"os/exec"
	"syscall"
	"testing"
)

// childEnv makes the test binary act as csched: TestMain runs run()
// on the binary's own arguments, so a test can measure one CLI run in
// a process of its own.
const childEnv = "CSCHED_TEST_AS_CLI"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestTraceStreamsInBoundedMemory pins that -trace streams: tracing
// Merge/distributed emits about 13 million events, which take
// gigabytes when recorded in memory before export, and the run must
// peak under 256 MB RSS.
func TestTraceStreamsInBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("traces Merge/distributed (seconds of compile, 1.2 GB of trace)")
	}
	cmd := exec.Command(os.Args[0], "-kernel", "Merge", "-arch", "distributed", "-dump=false", "-trace", os.DevNull)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("csched -trace: %v\n%s", err, out)
	}
	const limit = 256 << 20
	// Maxrss is in kilobytes on Linux.
	if rss := cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss << 10; rss >= limit {
		t.Errorf("traced run peaked at %d MB RSS, want under %d MB", rss>>20, limit>>20)
	}
}
