package wal

// Journal-level tests: record roundtrips, torn-write recovery (the
// crash cases Open must absorb — partial header, short payload, bad
// CRC), checkpoint verify-or-append semantics, and seal/unseal rules.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qurk/internal/crowd"
	"qurk/internal/hit"
)

func tempJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "run.qjl")
}

func sampleResult(hitID string) *crowd.RunResult {
	return &crowd.RunResult{
		Assignments: []hit.Assignment{{
			ID:          hitID + "/a0",
			HITID:       hitID,
			WorkerID:    "w1",
			Answers:     []hit.Answer{{QuestionID: "q0", Bool: true}},
			SubmitHours: 0.25,
		}},
		MakespanHours:    0.25,
		TotalAssignments: 1,
	}
}

// mustCreate opens a fresh journal with a canonical meta record.
func mustCreate(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := Create(path, Meta{Query: "SELECT 1", Backend: "sim", Fingerprint: 0xabcd})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestRoundtripAcrossReopen(t *testing.T) {
	path := tempJournal(t)
	j := mustCreate(t, path)
	if err := j.LogIntent(7, "filter@q.g0", []string{"h0", "h1"}); err != nil {
		t.Fatal(err)
	}
	if err := j.LogResult(7, sampleResult("h0")); err != nil {
		t.Fatal(err)
	}
	if err := j.LogIntent(9, "filter@q.g1", []string{"h2"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Checkpoint("sort-group", "q.g0", 0x1234, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if m := r.Meta(); m.Version != 1 || m.Query != "SELECT 1" || m.Fingerprint != 0xabcd {
		t.Errorf("meta did not roundtrip: %+v", m)
	}
	if sealed, _ := r.Sealed(); sealed {
		t.Error("unsealed journal read back as sealed")
	}
	if got := r.PendingIntents(); got != 1 {
		t.Errorf("PendingIntents = %d, want 1 (group 9's result never committed)", got)
	}
	if got := r.ReplayableResults(); got != 1 {
		t.Errorf("ReplayableResults = %d, want 1", got)
	}
	res := r.Replay(7)
	if res == nil || res.TotalAssignments != 1 || res.Assignments[0].HITID != "h0" {
		t.Fatalf("Replay(7) = %+v, want the recorded result", res)
	}
	if r.Replay(7) != nil {
		t.Error("second Replay(7) must be nil — results pop FIFO")
	}
	if r.Replay(9) != nil {
		t.Error("Replay(9) must be nil — intent committed without a result")
	}
	// Recorded checkpoint verifies on matching digest, diverges otherwise.
	if err := r.Checkpoint("sort-group", "q.g0", 0x1234, 1.5); err != nil {
		t.Errorf("matching checkpoint must verify: %v", err)
	}
	// Queue drained — the same call now appends rather than verifying.
	if err := r.Checkpoint("sort-group", "q.g0", 0x9999, 2.0); err != nil {
		t.Errorf("post-drain checkpoint must append: %v", err)
	}
}

func TestChargeRecordsRoundtrip(t *testing.T) {
	path := tempJournal(t)
	j := mustCreate(t, path)
	if err := j.LogCharge(7, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := j.LogCharge(7, 1, 3); err != nil {
		t.Fatal(err)
	}
	if err := j.LogCharge(9, 4, 5); err != nil {
		t.Fatal(err)
	}
	// Live appends are not consumable in the same run: TakeCharge only
	// serves records recovered at Open.
	if j.TakeCharge(7) {
		t.Error("TakeCharge must not consume charges appended in this run")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want := []Charge{{Key: 7, HITs: 2, Assignments: 3}, {Key: 7, HITs: 1, Assignments: 3}, {Key: 9, HITs: 4, Assignments: 5}}
	got := r.Charges()
	if len(got) != len(want) {
		t.Fatalf("Charges() = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Charges()[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Pops are per-key and bounded by the recovered count; Charges()
	// keeps the full recovered list for ledger reconstruction.
	if !r.TakeCharge(7) || !r.TakeCharge(7) {
		t.Error("TakeCharge(7) must succeed twice (two recovered records)")
	}
	if r.TakeCharge(7) {
		t.Error("third TakeCharge(7) must report not-charged")
	}
	if !r.TakeCharge(9) {
		t.Error("TakeCharge(9) must succeed once")
	}
	if r.TakeCharge(11) {
		t.Error("TakeCharge of unknown key must report not-charged")
	}
	if n := len(r.Charges()); n != 3 {
		t.Errorf("Charges() after pops = %d records, want 3 (full recovered list)", n)
	}
}

func TestReplayFIFOPerKey(t *testing.T) {
	path := tempJournal(t)
	j := mustCreate(t, path)
	if err := j.LogResult(3, sampleResult("first")); err != nil {
		t.Fatal(err)
	}
	if err := j.LogResult(3, sampleResult("second")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Replay(3).Assignments[0].HITID; got != "first" {
		t.Errorf("first replay = %q, want recording order", got)
	}
	if got := r.Replay(3).Assignments[0].HITID; got != "second" {
		t.Errorf("second replay = %q, want recording order", got)
	}
}

func TestCheckpointDivergenceFailsLoudly(t *testing.T) {
	path := tempJournal(t)
	j := mustCreate(t, path)
	if err := j.Checkpoint("join-build", "j0.b", 0x1111, 0); err != nil {
		t.Fatal(err)
	}
	j.Close()

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	err = r.Checkpoint("join-build", "j0.b", 0x2222, 0)
	if err == nil {
		t.Fatal("mismatched checkpoint digest must fail")
	}
	if !strings.Contains(err.Error(), "diverged") {
		t.Errorf("error %q does not wrap ErrDiverged", err)
	}
}

func TestSealAndReopen(t *testing.T) {
	path := tempJournal(t)
	j := mustCreate(t, path)
	if err := j.Seal(SealComplete); err != nil {
		t.Fatal(err)
	}
	j.Close()

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if sealed, reason := r.Sealed(); !sealed || reason != SealComplete {
		t.Errorf("Sealed() = %v %q, want true %q", sealed, reason, SealComplete)
	}
	// Appending past the seal reopens the journal.
	if err := r.LogIntent(1, "g", nil); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if sealed, _ := r2.Sealed(); sealed {
		t.Error("record appended after seal must clear the sealed state")
	}
}

func TestCreateRefusesExistingFile(t *testing.T) {
	path := tempJournal(t)
	j := mustCreate(t, path)
	j.Close()
	if _, err := Create(path, Meta{}); err == nil {
		t.Fatal("Create over an existing journal must fail")
	}
}

func TestClosedJournalRefusesAppends(t *testing.T) {
	path := tempJournal(t)
	j := mustCreate(t, path)
	j.Close()
	if err := j.LogIntent(1, "g", nil); err == nil {
		t.Error("append after Close must fail")
	}
	if err := j.Close(); err != nil {
		t.Errorf("double Close must be a no-op, got %v", err)
	}
}

// --- Torn-write recovery. The torn-tail shapes (partial header, short
// payload, CRC flip, bad length) are covered in internal/framelog; these
// check the journal's own state across a tear. ---

func TestRecoveryDropsCorruptCRC(t *testing.T) {
	path := tempJournal(t)
	j := mustCreate(t, path)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	metaOnly := st.Size()
	if err := j.LogIntent(42, "filter@q.g0", []string{"h0"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if st, err = os.Stat(path); err != nil {
		t.Fatal(err)
	}
	full := st.Size()
	// Flip one payload byte of the intent record: CRC mismatch.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	pos := metaOnly + 8 + (full-metaOnly-8)/2
	var b [1]byte
	if _, err := f.ReadAt(b[:], pos); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], pos); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.PendingIntents(); got != 0 {
		t.Errorf("PendingIntents after recovery = %d, want 0", got)
	}
	if err := r.LogIntent(43, "filter@q.g1", nil); err != nil {
		t.Errorf("journal not appendable after recovery: %v", err)
	}
}

func TestRecoveryKeepsCompleteRecordsBeforeTear(t *testing.T) {
	path := tempJournal(t)
	j := mustCreate(t, path)
	if err := j.LogIntent(42, "filter@q.g0", []string{"h0"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Append garbage past the last complete record: only it is dropped.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.PendingIntents(); got != 1 {
		t.Errorf("PendingIntents after recovery = %d, want 1", got)
	}
	// Recovery repositions the write offset: a new record lands right
	// after the last complete one and survives a reopen.
	if err := r.LogResult(42, sampleResult("h0")); err != nil {
		t.Fatalf("journal not appendable after recovery: %v", err)
	}
	r.Close()
	r, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.PendingIntents() != 0 || r.ReplayableResults() != 1 {
		t.Errorf("after append past the tear: %d pending, %d results; want 0, 1", r.PendingIntents(), r.ReplayableResults())
	}
	if st2, _ := os.Stat(path); st2.Size() <= st.Size() {
		t.Errorf("recovery truncated complete records: size %d <= %d", st2.Size(), st.Size())
	}
}

// TestOpensEarlierFormat: a journal written by an earlier build
// (testdata/parent.qjl) resumes, and the same calls today write the
// same bytes.
func TestOpensEarlierFormat(t *testing.T) {
	want, err := os.ReadFile("testdata/parent.qjl")
	if err != nil {
		t.Fatal(err)
	}
	path := tempJournal(t)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if m := r.Meta(); m.Query != "SELECT 1" || m.Fingerprint != 0xabcd {
		t.Errorf("meta = %+v", m)
	}
	if sealed, reason := r.Sealed(); !sealed || reason != SealComplete {
		t.Errorf("Sealed() = %v %q, want true %q", sealed, reason, SealComplete)
	}
	if r.PendingIntents() != 1 || r.ReplayableResults() != 1 || len(r.Charges()) != 1 {
		t.Errorf("replay state: %d pending, %d results, %d charges; want 1 each",
			r.PendingIntents(), r.ReplayableResults(), len(r.Charges()))
	}
	if err := r.Checkpoint("sort-group", "q.g0", 0x1234, 1.5); err != nil {
		t.Errorf("recorded checkpoint did not verify: %v", err)
	}
	r.Close()

	path = tempJournal(t)
	j := mustCreate(t, path)
	j.LogIntent(7, "filter@q.g0", []string{"h0", "h1"})
	j.LogResult(7, sampleResult("h0"))
	j.LogCharge(7, 2, 3)
	j.Checkpoint("sort-group", "q.g0", 0x1234, 1.5)
	j.LogIntent(9, "filter@q.g1", []string{"h2"})
	j.Seal(SealComplete)
	j.Close()
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
		t.Fatalf("journal bytes changed:\ngot  %x\nwant %x", got, want)
	}
}

func TestOpenRejectsJournalWithoutMeta(t *testing.T) {
	path := tempJournal(t)
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("empty journal must not open")
	}
	// A journal whose meta record itself is torn is unusable too.
	if err := os.WriteFile(path, []byte{0x04, 0x00}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("journal with torn meta must not open")
	}
}
