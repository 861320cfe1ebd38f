package framelog

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// frames encodes payloads back to back, the way Append writes them.
func frames(payloads ...string) []byte {
	var out []byte
	for _, p := range payloads {
		h := Header([]byte(p))
		out = append(append(out, h[:]...), p...)
	}
	return out
}

// replayAll opens the log at path, collecting every replayed payload.
func replayAll(t *testing.T, path string) (*Log, []string) {
	t.Helper()
	var got []string
	l, err := Open(path, 0, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, got
}

// TestFrameLayout pins the on-disk bytes: journals, stores and spill
// runs written by earlier builds must keep opening.
func TestFrameLayout(t *testing.T) {
	const want = "05000000" + "86a61036" + "68656c6c6f" // len, CRC-32 IEEE, "hello"
	if got := hex.EncodeToString(frames("hello")); got != want {
		t.Fatalf("frame = %s, want %s", got, want)
	}
	path := filepath.Join(t.TempDir(), "log")
	l, err := Open(path, os.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if data, _ := os.ReadFile(path); hex.EncodeToString(data) != want {
		t.Fatalf("Append wrote %x, want %s", data, want)
	}
}

// TestReplayTornTail is every crash-mid-write shape Open must absorb:
// replay keeps the complete records before the tear, the file is cut
// back to them, and the log appends cleanly after it.
func TestReplayTornTail(t *testing.T) {
	base := frames("alpha", "beta")
	second := len(frames("alpha")) // offset of the "beta" frame
	cases := []struct {
		name string
		data func() []byte
		want []string
	}{
		{"clean", func() []byte { return base }, []string{"alpha", "beta"}},
		{"partial_header", func() []byte { return append(base, frames("gamma")[:3]...) }, []string{"alpha", "beta"}},
		{"short_payload", func() []byte { return append(base, frames("gamma")[:HeaderSize+2]...) }, []string{"alpha", "beta"}},
		{"crc_flip", func() []byte {
			b := append([]byte(nil), base...)
			b[second+HeaderSize+1] ^= 0xff
			return b
		}, []string{"alpha"}},
		{"oversized_length", func() []byte {
			b := append([]byte(nil), base...)
			binary.LittleEndian.PutUint32(b[second:], 0xffffffff)
			return b
		}, []string{"alpha"}},
		{"zero_length", func() []byte {
			b := append([]byte(nil), base...)
			binary.LittleEndian.PutUint32(b[second:], 0)
			return b
		}, []string{"alpha"}},
		{"complete_records_before_tear", func() []byte {
			return append(frames("a", "b", "c", "d", "e"), 0x01, 0x02, 0x03)
		}, []string{"a", "b", "c", "d", "e"}},
		{"header_only", func() []byte { return frames("alpha")[:HeaderSize] }, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			if err := os.WriteFile(path, tc.data(), 0o644); err != nil {
				t.Fatal(err)
			}
			l, got := replayAll(t, path)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("replayed %q, want %q", got, tc.want)
			}
			if data, _ := os.ReadFile(path); !bytes.Equal(data, frames(tc.want...)) {
				t.Fatalf("file after Open = %x, want the %d complete frames", data, len(tc.want))
			}
			if err := l.Append([]byte("next")); err != nil {
				t.Fatalf("log not appendable after recovery: %v", err)
			}
			l.Close()
			l, got = replayAll(t, path)
			defer l.Close()
			if want := append(tc.want, "next"); !reflect.DeepEqual(got, want) {
				t.Fatalf("after append and reopen: replayed %q, want %q", got, want)
			}
		})
	}
}

// TestReplayCallbackErrors: a callback returning ErrTorn ends replay
// there as a torn tail; any other error fails Open and leaves the file
// untouched.
func TestReplayCallbackErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	data := frames("alpha", "bad", "gamma")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	_, err := Open(path, 0, func(p []byte) error {
		if string(p) == "bad" {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Open = %v, want the callback's error", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
		t.Fatal("failed Open modified the file")
	}
	l, err := Open(path, 0, func(p []byte) error {
		if string(p) == "bad" {
			return ErrTorn
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got, _ := os.ReadFile(path); !bytes.Equal(got, frames("alpha")) {
		t.Fatalf("file after ErrTorn from replay = %x, want only the first frame", got)
	}
}

// TestAppendFailureIsSticky: after one failed write, every later
// Append fails with that error even once the cause clears, because a
// frame written after a partial one would be cut off, with every frame
// after it, by the next Open.
func TestAppendFailureIsSticky(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	defer full.Close()
	path := filepath.Join(t.TempDir(), "log")
	l, err := Open(path, os.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	good := l.f
	l.f = full
	first := l.Append([]byte("lost"))
	l.f = good
	if first == nil {
		t.Fatal("append to a full device succeeded")
	}
	for _, p := range []string{"after", "seal"} {
		if err := l.Append([]byte(p)); !errors.Is(err, first) {
			t.Fatalf("append %q after a failed write = %v, want the sticky %v", p, err, first)
		}
	}
	if data, _ := os.ReadFile(path); !bytes.Equal(data, frames("kept")) {
		t.Fatalf("file = %x, want only the frame before the failure", data)
	}
}

func TestAppendBoundsAndClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if _, err := Open(path, 0, nil); err == nil {
		t.Fatal("Open without O_CREATE made a missing file")
	}
	l, err := Open(path, os.O_CREATE|os.O_EXCL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, os.O_CREATE|os.O_EXCL, nil); err == nil {
		t.Fatal("O_EXCL Open over an existing file succeeded")
	}
	if err := l.Append(nil); err == nil {
		t.Fatal("empty record accepted: a zero length reads back as a torn frame")
	}
	if err := l.Append([]byte("ok")); err != nil {
		t.Fatalf("a rejected record must not poison the log: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if err := l.Append([]byte("late")); !errors.Is(err, errClosed) {
		t.Fatalf("Append after Close = %v, want errClosed", err)
	}
}

func TestReadFrameErrors(t *testing.T) {
	data := frames("alpha")
	if _, err := ReadFrame(bytes.NewReader(nil), nil, 64); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	if _, err := ReadFrame(bytes.NewReader(data), nil, 4); !errors.Is(err, ErrTorn) {
		t.Fatalf("payload over the bound: %v, want ErrTorn", err)
	}
	data[HeaderSize] ^= 1
	if _, err := ReadFrame(bytes.NewReader(data), nil, 64); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped payload: %v, want ErrChecksum", err)
	}
	buf := make([]byte, 0, 64)
	p, err := ReadFrame(bytes.NewReader(frames("beta")), buf, 64)
	if err != nil || string(p) != "beta" || &p[0] != &buf[:1][0] {
		t.Fatalf("ReadFrame = %q, %v; want \"beta\" read into the caller's buffer", p, err)
	}
}
