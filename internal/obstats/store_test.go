package obstats

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"qurk/internal/framelog"
)

func TestObserveEstimateWeightedMean(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Estimate("samePerson", KindPassFraction); ok {
		t.Fatal("empty store returned an estimate")
	}
	s.Observe("samePerson", KindPassFraction, 0.2, 100)
	s.Observe("samePerson", KindPassFraction, 0.6, 300)
	v, w, ok := s.Estimate("samePerson", KindPassFraction)
	if !ok {
		t.Fatal("estimate missing after observations")
	}
	if want := (0.2*100 + 0.6*300) / 400; v != want {
		t.Fatalf("weighted mean = %v, want %v", v, want)
	}
	if w != 400 {
		t.Fatalf("weight = %v, want 400", w)
	}
	// Kinds are independent aggregates.
	if _, _, ok := s.Estimate("samePerson", KindSelectivity); ok {
		t.Fatal("selectivity estimate leaked from pass-fraction observations")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestObserveRejectsDegenerateInputs(t *testing.T) {
	s, _ := Open("")
	s.Observe("t", KindSelectivity, 0.5, 0)          // zero weight
	s.Observe("t", KindSelectivity, 0.5, -3)         // negative weight
	s.Observe("t", KindSelectivity, math.NaN(), 10)  // NaN value
	s.Observe("t", KindSelectivity, math.Inf(1), 10) // +Inf value
	s.Observe("t", KindSelectivity, 0.5, math.NaN()) // NaN weight
	if s.Len() != 0 {
		t.Fatalf("degenerate observations were stored: Len = %d", s.Len())
	}
}

func TestPersistReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.qst")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.setClock(func() time.Time { return time.Unix(1700000000, 0).UTC() })
	s.Observe("isFemale", KindSelectivity, 0.4, 20)
	s.Observe("isFemale", KindSelectivity, 0.6, 20)
	s.Observe("squareSorter", KindGroupSize, 12, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Stats().Loaded; got != 3 {
		t.Fatalf("Loaded = %d, want 3", got)
	}
	v, w, ok := r.Estimate("isFemale", KindSelectivity)
	if !ok || v != 0.5 || w != 40 {
		t.Fatalf("replayed estimate = (%v, %v, %v), want (0.5, 40, true)", v, w, ok)
	}
	v, _, ok = r.Estimate("squareSorter", KindGroupSize)
	if !ok || v != 12 {
		t.Fatalf("replayed group size = (%v, %v)", v, ok)
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.qst")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Observe("a", KindSelectivity, 0.25, 4)
	s.Observe("b", KindSelectivity, 0.75, 4)
	s.Close()

	// Append a torn frame: a valid-looking header promising more bytes
	// than exist.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, framelog.HeaderSize)
	binary.LittleEndian.PutUint32(hdr[0:4], 9999)
	f.Write(hdr)
	f.Write([]byte("partial"))
	f.Close()

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Loaded; got != 2 {
		t.Fatalf("Loaded = %d after torn tail, want 2", got)
	}
	// The torn tail must be gone: a fresh observation then a replay
	// sees exactly three records.
	r.Observe("c", KindSelectivity, 0.5, 4)
	r.Close()
	r2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.Stats().Loaded; got != 3 {
		t.Fatalf("Loaded = %d after append-past-torn-tail, want 3", got)
	}
}

func TestCorruptPayloadStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.qst")
	s, _ := Open(path)
	s.Observe("a", KindSelectivity, 0.25, 4)
	s.Observe("b", KindSelectivity, 0.75, 4)
	s.Close()

	// Flip a payload byte in the second record: its CRC no longer
	// matches, so replay stops after the first record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := binary.LittleEndian.Uint32(data[0:4])
	data[framelog.HeaderSize+int(firstLen)+framelog.HeaderSize] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Stats().Loaded; got != 1 {
		t.Fatalf("Loaded = %d after CRC corruption, want 1", got)
	}
	if _, _, ok := r.Estimate("b", KindSelectivity); ok {
		t.Fatal("corrupt record was served")
	}
}

// TestOpensEarlierFormat: a stats file written by an earlier build
// (testdata/parent.qos) replays, and the same Observe calls today write
// the same bytes.
func TestOpensEarlierFormat(t *testing.T) {
	want, err := os.ReadFile("testdata/parent.qos")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stats.qst")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if v, w, ok := r.Estimate("isFemale", KindSelectivity); !ok || v != 0.4 || w != 20 {
		t.Fatalf("replayed estimate = (%v, %v, %v), want (0.4, 20, true)", v, w, ok)
	}
	r.Close()

	path = filepath.Join(t.TempDir(), "stats.qst")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.setClock(func() time.Time { return time.Unix(1700000000, 0).UTC() })
	s.Observe("isFemale", KindSelectivity, 0.4, 20)
	s.Observe("squareSorter", KindGroupSize, 12, 1)
	s.Close()
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
		t.Fatalf("stats bytes changed:\ngot  %x\nwant %x", got, want)
	}
}

func TestSnapshotSortedAndStats(t *testing.T) {
	s, _ := Open("")
	s.Observe("zeta", KindGroupSize, 8, 1)
	s.Observe("alpha", KindSelectivity, 0.5, 10)
	s.Observe("alpha", KindAgreement, 0.9, 10)
	snap := s.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("Snapshot len = %d, want 3", len(snap))
	}
	if snap[0].Task != "alpha" || snap[0].Kind != KindAgreement {
		t.Fatalf("Snapshot[0] = %+v, want alpha/agreement first", snap[0])
	}
	if snap[2].Task != "zeta" || snap[2].Value != 8 || snap[2].Count != 1 {
		t.Fatalf("Snapshot[2] = %+v", snap[2])
	}
	st := s.Stats()
	if st.Observed != 3 || st.Entries != 3 || st.Loaded != 0 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestConcurrentObserve(t *testing.T) {
	s, _ := Open(filepath.Join(t.TempDir(), "stats.qst"))
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Observe("task", KindSelectivity, 0.5, 1)
				s.Estimate("task", KindSelectivity)
			}
		}()
	}
	wg.Wait()
	v, w, ok := s.Estimate("task", KindSelectivity)
	if !ok || v != 0.5 || w != 400 {
		t.Fatalf("concurrent estimate = (%v, %v, %v), want (0.5, 400, true)", v, w, ok)
	}
}
