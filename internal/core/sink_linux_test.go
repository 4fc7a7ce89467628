//go:build linux

package core_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"netoblivious/internal/core"
	"netoblivious/internal/tracetest"
)

// TestTraceFileSinkWritesPipeInPlace: a target that exists and is not a
// regular file is written in place.  A named pipe receives the trace
// and is still a named pipe afterwards; no temporary sibling is made.
func TestTraceFileSinkWritesPipeInPlace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.fifo")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Fatal(err)
	}
	drained := make(chan []byte, 1)
	go func() {
		var b []byte
		if f, err := os.Open(path); err == nil {
			b, _ = io.ReadAll(f)
			f.Close()
		}
		drained <- b
	}()
	prog := exchangeProgram(8, 3, 2)
	var ref tracetest.Collector
	if _, err := core.RunOpt(8, prog, core.Options{Engine: streamEngine, Sink: &ref}); err != nil {
		t.Fatal(err)
	}
	want := ref.JSON(t)
	if _, err := core.RunOpt(8, prog, core.Options{Engine: streamEngine, Sink: core.NewTraceFileSink(path)}); err != nil {
		t.Fatal(err)
	}
	st, err := os.Lstat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode()&os.ModeNamedPipe == 0 {
		// The drain goroutine stays blocked on the replaced pipe.
		t.Fatalf("%s is %v after the run, want a named pipe", path, st.Mode())
	}
	if _, err := os.Lstat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temporary sibling exists (Lstat: %v)", err)
	}
	select {
	case got := <-drained:
		if !bytes.Equal(got, want) {
			t.Errorf("the pipe carried %d bytes, want the %d bytes of the collected run's encoding", len(got), len(want))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the pipe's reader saw no end of the trace")
	}
}
