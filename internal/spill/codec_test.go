package spill

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"qurk/internal/relation"
)

// encodeRun encodes tuples into one in-memory binary run stream.
func encodeRun(t *testing.T, s *relation.Schema, tuples []relation.Tuple) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := newFrameWriter(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range tuples {
		if err := fw.add(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeRun decodes a binary run stream fully.
func decodeRun(s *relation.Schema, data []byte) ([]relation.Tuple, error) {
	fr, err := newFrameReader(bytes.NewReader(data), s)
	if err != nil {
		return nil, err
	}
	var out []relation.Tuple
	for {
		tp, ok, err := fr.next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, tp)
	}
}

// TestCodecMultiFrame crosses the frameRows boundary so frame cuts and
// the arena handoff between frames are exercised.
func TestCodecMultiFrame(t *testing.T) {
	s := testSchema(t)
	var tuples []relation.Tuple
	for i := 0; i < frameRows*2+17; i++ {
		tuples = append(tuples, testTuple(t, s, i))
	}
	data := encodeRun(t, s, tuples)
	got, err := decodeRun(s, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tuples) {
		t.Fatalf("decoded %d tuples, want %d", len(got), len(tuples))
	}
	for i := range tuples {
		if !tuples[i].Equal(got[i]) {
			t.Fatalf("row %d = %v, want %v", i, got[i], tuples[i])
		}
		if tuples[i].Key() != got[i].Key() {
			t.Fatalf("row %d key diverged through codec", i)
		}
	}
}

// TestCodecDetectsEveryBitFlip is the CRC contract: flipping any single
// byte anywhere in a valid run stream must surface as an error — never
// a panic, never silently different rows.
func TestCodecDetectsEveryBitFlip(t *testing.T) {
	s := testSchema(t)
	var tuples []relation.Tuple
	for i := 0; i < 9; i++ {
		tuples = append(tuples, testTuple(t, s, i))
	}
	data := encodeRun(t, s, tuples)
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x41
		if _, err := decodeRun(s, mut); err == nil {
			t.Fatalf("byte flip at offset %d/%d went undetected", i, len(data))
		} else if !errors.Is(err, errCorrupt) {
			t.Fatalf("byte flip at offset %d: error not marked corrupt: %v", i, err)
		}
	}
}

// TestCodecTruncation: cutting the stream mid-frame errors; cutting at
// a frame boundary ends cleanly with the complete frames decoded.
func TestCodecTruncation(t *testing.T) {
	s := testSchema(t)
	var tuples []relation.Tuple
	for i := 0; i < 5; i++ {
		tuples = append(tuples, testTuple(t, s, i))
	}
	data := encodeRun(t, s, tuples)
	sawCleanShort := false
	for cut := 0; cut < len(data); cut++ {
		got, err := decodeRun(s, data[:cut])
		if err == nil {
			// Only complete frames may decode cleanly, and only with a
			// prefix of the original rows.
			sawCleanShort = true
			if len(got) > len(tuples) {
				t.Fatalf("cut %d: %d rows from %d-row stream", cut, len(got), len(tuples))
			}
			for i := range got {
				if !got[i].Equal(tuples[i]) {
					t.Fatalf("cut %d row %d = %v, want %v", cut, i, got[i], tuples[i])
				}
			}
		}
	}
	if !sawCleanShort {
		t.Fatal("no truncation point decoded cleanly — boundary handling suspect")
	}
}

func TestCodecRejectsWrongSchema(t *testing.T) {
	s := testSchema(t)
	data := encodeRun(t, s, []relation.Tuple{testTuple(t, s, 1)})
	other := relation.MustSchema(relation.Column{Name: "only", Kind: relation.KindText})
	if _, err := decodeRun(other, data); !errors.Is(err, errCorrupt) {
		t.Fatalf("wrong-arity schema accepted: %v", err)
	}
	flipped := relation.MustSchema(
		relation.Column{Name: "k", Kind: relation.KindText}, // kind differs
		relation.Column{Name: "s", Kind: relation.KindText},
		relation.Column{Name: "f", Kind: relation.KindFloat},
		relation.Column{Name: "b", Kind: relation.KindBool},
		relation.Column{Name: "u", Kind: relation.KindURL},
	)
	if _, err := decodeRun(flipped, data); !errors.Is(err, errCorrupt) {
		t.Fatalf("wrong-kind schema accepted: %v", err)
	}
}

// TestCodecOversizedStringsSplitFrames: rows whose string payloads blow
// past frameBytes still round-trip (the writer splits the staged rows).
func TestCodecOversizedStringsSplitFrames(t *testing.T) {
	s := relation.MustSchema(relation.Column{Name: "blob", Kind: relation.KindText})
	big := bytes.Repeat([]byte("x"), frameBytes/2)
	var tuples []relation.Tuple
	for i := 0; i < 6; i++ {
		tuples = append(tuples, relation.MustTuple(s, relation.Text(fmt.Sprintf("%d:%s", i, big))))
	}
	data := encodeRun(t, s, tuples)
	got, err := decodeRun(s, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tuples) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(tuples))
	}
	for i := range tuples {
		if !tuples[i].Equal(got[i]) {
			t.Fatalf("row %d corrupted through frame split", i)
		}
	}
}

// TestCodecOpensEarlierFormat: a run written by an earlier build
// (testdata/parent.qrun) decodes, and encoding the same rows today
// gives the same bytes.
func TestCodecOpensEarlierFormat(t *testing.T) {
	want, err := os.ReadFile("testdata/parent.qrun")
	if err != nil {
		t.Fatal(err)
	}
	s := testSchema(t)
	var tuples []relation.Tuple
	for i := 0; i < frameRows+3; i++ {
		tuples = append(tuples, testTuple(t, s, i))
	}
	got, err := decodeRun(s, want)
	if err != nil || len(got) != len(tuples) {
		t.Fatalf("decoded %d rows, %v; want %d", len(got), err, len(tuples))
	}
	for i := range tuples {
		if !tuples[i].Equal(got[i]) {
			t.Fatalf("row %d = %v, want %v", i, got[i], tuples[i])
		}
	}
	if enc := encodeRun(t, s, tuples); !bytes.Equal(enc, want) {
		t.Fatal("run bytes changed from the earlier format")
	}
}
