package wal

import (
	"os"
	"syscall"
	"testing"
)

// TestAppendFailureIsSticky: once a commit fails (here: the file size
// limit stops the write), every later commit fails too, even after the
// cause clears — a record written after a partial one would be cut off
// with it by the next Open's torn-tail truncation.
func TestAppendFailureIsSticky(t *testing.T) {
	path := tempJournal(t)
	j := mustCreate(t, path)
	defer j.Close()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	lim := old
	lim.Cur = uint64(st.Size())
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	err = j.LogResult(7, sampleResult("h0"))
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	if err == nil {
		t.Fatal("append past the file size limit succeeded")
	}
	if err := j.LogResult(9, sampleResult("h1")); err == nil {
		t.Error("append after a failed append succeeded")
	}
	if err := j.Seal(SealComplete); err == nil {
		t.Error("Seal after a failed append succeeded")
	}
}
