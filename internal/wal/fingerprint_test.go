package wal

import (
	"errors"
	"testing"

	"qurk/internal/core"
)

// TestFingerprintPinned pins the fingerprint bytes: the value below was
// computed by the earlier per-caller fingerprint code for the same
// inputs, so journals it wrote still resume.
func TestFingerprintPinned(t *testing.T) {
	const src = `SELECT c.name FROM celeb AS c WHERE isFemale(c.img)`
	if got, want := Fingerprint(src, core.Options{}, "sim"), uint64(0x24b4d5c66599e6ca); got != want {
		t.Fatalf("Fingerprint = %#x, want %#x", got, want)
	}
}

func TestSealReason(t *testing.T) {
	if got := SealReason(nil); got != SealComplete {
		t.Errorf("SealReason(nil) = %q, want %q", got, SealComplete)
	}
	if got, want := SealReason(errors.New("boom")), "interrupted: boom"; got != want {
		t.Errorf("SealReason(err) = %q, want %q", got, want)
	}
}
