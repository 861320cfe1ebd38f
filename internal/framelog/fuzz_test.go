package framelog

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzFramelogReplay opens arbitrary file bytes as a log. Open must
// never panic, must replay a clean prefix of the input (the replayed
// payloads re-encode to exactly the bytes left in the file), and a
// second Open must replay the same records without changing the file.
// The committed corpus under testdata/fuzz/ holds the torn-tail shapes.
func FuzzFramelogReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(frames("alpha", "beta"))
	f.Add(append(frames("alpha"), 0x01, 0x02, 0x03))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, first := replayAll(t, path)
		l.Close()
		prefix := frames(first...)
		if !bytes.HasPrefix(data, prefix) {
			t.Fatalf("replayed %q, which is not a prefix of the input", first)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, prefix) {
			t.Fatalf("file after Open = %x, want the replayed prefix %x", got, prefix)
		}
		l, second := replayAll(t, path)
		l.Close()
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("second Open replayed %q, first %q", second, first)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, prefix) {
			t.Fatal("second Open changed the file")
		}
	})
}
