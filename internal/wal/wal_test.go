package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stencil"
	"repro/internal/tunespace"
)

// testRecord builds a valid record whose Machine field carries a sequence
// number, so recovered logs can be checked for order and gaplessness.
func testRecord(i int) Record {
	k := stencil.Laplacian()
	q := stencil.Instance{Kernel: k, Size: stencil.Size3D(64, 64, 64)}
	t := tunespace.Vector{Bx: 32, By: 8, Bz: 4, U: 2, C: 1, K: 1}
	r := NewRecord(q, t, 0.001+float64(i)*1e-6)
	r.Machine = fmt.Sprintf("seq-%06d", i)
	r.Source = "measure"
	return r
}

func seqOf(t *testing.T, r Record) int {
	t.Helper()
	var n int
	if _, err := fmt.Sscanf(r.Machine, "seq-%d", &n); err != nil {
		t.Fatalf("record machine %q is not a sequence tag", r.Machine)
	}
	return n
}

// assertPrefix checks recs are exactly records 0..len-1 in append order and
// that at least want of them survived.
func assertPrefix(t *testing.T, recs []Record, want int) {
	t.Helper()
	if len(recs) < want {
		t.Fatalf("recovered %d records, want at least %d", len(recs), want)
	}
	for i, r := range recs {
		if got := seqOf(t, r); got != i {
			t.Fatalf("record %d has sequence %d: recovered log is not a gapless prefix", i, got)
		}
	}
}

func TestAppendReopenRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Records != 0 {
		t.Fatalf("fresh log report %+v, want clean and empty", rep)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.Count(); got != n {
		t.Fatalf("Count = %d, want %d", got, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	recs, rep, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean log read back dirty: %+v", rep)
	}
	assertPrefix(t, recs, n)
	if len(recs) != n {
		t.Fatalf("read %d records, want %d", len(recs), n)
	}
	// The payload round-trips structurally: rebuild the instance.
	q, err := recs[7].Instance()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if q.Kernel.Dims() != 3 || q.Size.X != 64 {
		t.Fatalf("rebuilt instance %v lost structure", q)
	}
	if err := recs[7].Validate(); err != nil {
		t.Fatal(err)
	}

	// Reopen for append: recovery counts the existing records and new
	// appends extend the same log.
	l2, rep2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Records != n || !rep2.Clean() {
		t.Fatalf("reopen report %+v, want %d clean records", rep2, n)
	}
	for i := n; i < n+10; i++ {
		if err := l2.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err = ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertPrefix(t, recs, n+10)
}

func TestRotationSealsSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force constant rotation.
	l, _, err := Open(dir, Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 3 {
		t.Fatalf("expected several segments at 2KiB rotation, got %d", len(seqs))
	}
	// No tmp leftovers after clean operation.
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("clean rotation left tmp file %s", e.Name())
		}
	}
	recs, rep, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("rotated log read back dirty: %+v", rep)
	}
	assertPrefix(t, recs, n)

	// Explicit Rotate starts a fresh segment and appends keep working.
	l2, _, err := Open(dir, Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(testRecord(n)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err = ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertPrefix(t, recs, n+1)
}

func TestTornTailIsTruncatedAndAppendable(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: append a partial frame (header promising more payload
	// than exists), as a crash mid-append would leave.
	path := segPath(dir, 1)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [frameHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 500)
	f.Write(hdr[:])
	f.Write([]byte("only a fragment of the promised payload"))
	f.Close()
	before, _ := os.Stat(path)

	l2, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != n {
		t.Fatalf("recovered %d records, want %d", rep.Records, n)
	}
	if !rep.Truncated || rep.TornBytes == 0 {
		t.Fatalf("report %+v: torn tail was not truncated", rep)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("segment not shrunk: %d -> %d bytes", before.Size(), after.Size())
	}
	// Appends resume at the clean boundary.
	for i := n; i < n+5; i++ {
		if err := l2.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, rep2, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() {
		t.Fatalf("repaired log reads dirty: %+v", rep2)
	}
	assertPrefix(t, recs, n+5)
}

func TestCorruptFrameIsSkippedInPlace(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the payload of a middle frame: the length stays
	// plausible, so recovery skips exactly that frame and keeps the rest.
	path := segPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate frame 5's payload by walking the framing.
	off := int64(len(magic))
	for i := 0; i < 5; i++ {
		off += frameHeaderBytes + int64(binary.LittleEndian.Uint32(data[off:off+4]))
	}
	data[off+frameHeaderBytes+10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, rep, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptFrames != 1 {
		t.Fatalf("report %+v, want exactly 1 corrupt frame", rep)
	}
	if len(recs) != n-1 {
		t.Fatalf("recovered %d records, want %d", len(recs), n-1)
	}
	seen := map[int]bool{}
	for _, r := range recs {
		seen[seqOf(t, r)] = true
	}
	if seen[5] {
		t.Fatal("the corrupted record survived recovery")
	}
	for i := 0; i < n; i++ {
		if i != 5 && !seen[i] {
			t.Fatalf("intact record %d was lost", i)
		}
	}
}

func TestOpenIgnoresTmpLeftovers(t *testing.T) {
	dir := t.TempDir()
	// A crash mid-segment-creation leaves a .tmp file; Open must neither
	// parse it nor fail over it.
	if err := os.WriteFile(filepath.Join(dir, "seg-00000007.wal.tmp"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 0 || !rep.Clean() {
		t.Fatalf("report %+v, want clean empty", rep)
	}
	if err := l.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-00000007.wal.tmp")); !os.IsNotExist(err) {
		t.Error("tmp leftover was not swept on segment creation")
	}
}

func TestRecordValidation(t *testing.T) {
	good := testRecord(0)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Record)
	}{
		{"no offsets", func(r *Record) { r.Offsets = nil }},
		{"zero runtime", func(r *Record) { r.RuntimeSeconds = 0 }},
		{"negative runtime", func(r *Record) { r.RuntimeSeconds = -1 }},
		{"absurd runtime", func(r *Record) { r.RuntimeSeconds = 7200 }},
		{"bad dtype", func(r *Record) { r.DType = "quad" }},
		{"bad vector", func(r *Record) { r.Vector = [6]int{0, 0, 0, 0, 0, 0} }},
		{"bad buffers", func(r *Record) { r.Buffers = 0 }},
		{"too many buffers", func(r *Record) { r.Buffers = 17 }},
		{"size too small", func(r *Record) { r.Size = [3]int{2, 2, 2} }},
	}
	for _, tc := range cases {
		r := testRecord(0)
		tc.mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad record", tc.name)
		}
	}
}

func TestCountRecords(t *testing.T) {
	dir := t.TempDir()
	if n, err := CountRecords(dir); err != nil || n != 0 {
		t.Fatalf("missing dir: count %d err %v, want 0 nil", n, err)
	}
	l, _, err := Open(dir, Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	n, err := CountRecords(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 30 {
		t.Fatalf("CountRecords = %d, want 30", n)
	}
	l.Close()
}
