// Package wal is the durable observation log of the online-learning loop: an
// append-only, segmented, CRC-framed record of every measured stencil
// execution the serving stack sees. The server appends each measure-mode
// result (and client-reported runtimes) off the request path; the background
// retrainer tails the log and folds the observations into new model versions.
// Durability is the whole point — a crash may cost at most the last unsynced
// batch, and can never corrupt what was already synced.
//
// # On-disk format
//
// A log is a directory of segment files named seg-00000001.wal,
// seg-00000002.wal, ... Each segment starts with an 8-byte magic header and
// holds a run of frames:
//
//	[4B little-endian payload length][4B CRC32-C of payload][payload]
//
// The payload is one JSON-encoded Record — self-describing and greppable,
// with the frame layer supplying integrity and boundaries. Segments are
// created via tmp+rename (header written and synced before the rename), so a
// half-created segment is never visible under its final name; appends go to
// the highest-numbered segment, and rotation seals it by simply starting the
// next one.
//
// # Crash recovery
//
// Open never fails the process over corruption. It scans every segment,
// verifies each frame's CRC, and classifies damage:
//
//   - a torn tail (truncated frame, zeroed length, or an implausible length
//     at end of segment) is cut off — on the active segment the file is
//     physically truncated so appends resume at a clean boundary;
//   - a corrupt frame with a plausible length (payload bit-flip) is skipped
//     and scanning continues at the next frame boundary;
//   - a segment whose header is damaged is skipped whole.
//
// Everything it did is returned in a Report, so operators see exactly what a
// crash cost. ReadAll applies the same scan read-only (no truncation), which
// lets the in-process retrainer tail a log that is concurrently appended.
package wal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// magic identifies a segment file; the trailing byte versions the framing.
var magic = [8]byte{'S', 'T', 'W', 'A', 'L', '0', '1', '\n'}

const (
	frameHeaderBytes = 8
	segPrefix        = "seg-"
	segSuffix        = ".wal"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options sizes a log.
type Options struct {
	// SegmentBytes is the rotation threshold: an append that would grow the
	// active segment past it starts a new segment first (default 4 MiB).
	SegmentBytes int64
	// MaxRecordBytes bounds one encoded record; larger appends are rejected
	// and, during recovery, a length prefix above it marks a torn tail
	// (default 1 MiB).
	MaxRecordBytes int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = 1 << 20
	}
	return o
}

// Report is what recovery found and did. It is informational: corruption
// never fails Open.
type Report struct {
	// Segments is how many segment files were scanned.
	Segments int
	// Records is how many intact records the log holds.
	Records int64
	// CorruptFrames counts CRC-failed frames that were skipped in place.
	CorruptFrames int
	// TornBytes counts tail bytes cut off as unparseable (truncated on the
	// active segment, ignored on sealed ones).
	TornBytes int64
	// SkippedSegments counts segments abandoned whole (bad header).
	SkippedSegments int
	// Truncated reports whether Open physically truncated the active
	// segment to repair a torn tail.
	Truncated bool
}

func (r Report) String() string {
	return fmt.Sprintf("wal: %d record(s) in %d segment(s); recovery skipped %d corrupt frame(s), %d torn byte(s), %d unreadable segment(s)",
		r.Records, r.Segments, r.CorruptFrames, r.TornBytes, r.SkippedSegments)
}

// Clean reports whether recovery found no damage at all.
func (r Report) Clean() bool {
	return r.CorruptFrames == 0 && r.TornBytes == 0 && r.SkippedSegments == 0
}

// Log is an open observation log. Append buffers in process memory until
// Sync, which flushes and fsyncs — the caller (the server's batching sink)
// decides the durability cadence. All methods are safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	dir  string
	opt  Options
	f    *os.File
	w    *bufio.Writer
	seq  uint64
	size int64 // bytes in the active segment including buffered writes

	records int64 // intact records: recovered + appended
	closed  bool
}

// Open recovers the log at dir (creating it when missing) and readies the
// highest-numbered segment for appending. Corruption is repaired and
// reported, never returned as an error; the error path is real I/O failure.
func Open(dir string, opt Options) (*Log, Report, error) {
	opt = opt.withDefaults()
	var rep Report
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rep, fmt.Errorf("wal: %w", err)
	}
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, rep, err
	}
	l := &Log{dir: dir, opt: opt}
	for _, seq := range seqs {
		path := segPath(dir, seq)
		s, err := scanSegment(path, opt.MaxRecordBytes)
		if err != nil {
			return nil, rep, err
		}
		rep.Segments++
		rep.Records += int64(len(s.frames))
		rep.CorruptFrames += s.corrupt
		rep.TornBytes += s.tornBytes
		if s.headerBad {
			rep.SkippedSegments++
		}
	}
	l.records = rep.Records

	// Ready the active segment: the highest-numbered one, truncated to its
	// last parseable boundary; a damaged header or a full segment forces a
	// fresh segment instead.
	if len(seqs) > 0 {
		seq := seqs[len(seqs)-1]
		path := segPath(dir, seq)
		s, err := scanSegment(path, opt.MaxRecordBytes)
		if err != nil {
			return nil, rep, err
		}
		if !s.headerBad {
			if s.tornBytes > 0 {
				if err := os.Truncate(path, s.goodEnd); err != nil {
					return nil, rep, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
				}
				rep.Truncated = true
			}
			if s.goodEnd < opt.SegmentBytes {
				f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
				if err != nil {
					return nil, rep, fmt.Errorf("wal: %w", err)
				}
				if _, err := f.Seek(s.goodEnd, 0); err != nil {
					f.Close()
					return nil, rep, fmt.Errorf("wal: %w", err)
				}
				l.f, l.w, l.seq, l.size = f, bufio.NewWriter(f), seq, s.goodEnd
			}
		}
		if l.f == nil {
			if err := l.startSegment(seq + 1); err != nil {
				return nil, rep, err
			}
		}
	} else if err := l.startSegment(1); err != nil {
		return nil, rep, err
	}
	return l, rep, nil
}

// Append encodes and buffers one record, rotating the active segment first
// when it is full. The record is durable only after the next Sync.
func (l *Log) Append(r Record) error {
	payload, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("wal: encoding record: %w", err)
	}
	if len(payload) > l.opt.MaxRecordBytes {
		return fmt.Errorf("wal: record encodes to %d bytes, cap is %d", len(payload), l.opt.MaxRecordBytes)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	need := int64(frameHeaderBytes + len(payload))
	if l.size+need > l.opt.SegmentBytes && l.size > int64(len(magic)) {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	var hdr [frameHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := l.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := l.w.Write(payload); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.size += need
	l.records++
	return nil
}

// Sync flushes buffered appends and fsyncs the active segment: everything
// appended before the call is durable when it returns.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Rotate seals the active segment and starts the next one, regardless of
// fill level.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	return l.rotateLocked()
}

func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return l.startSegment(l.seq + 1)
}

// startSegment creates segment seq via tmp+rename: the header is written and
// synced before the file becomes visible under its segment name, so recovery
// never sees a headerless segment (crash leftovers keep the .tmp suffix and
// are ignored by the segment listing, then swept here).
func (l *Log) startSegment(seq uint64) error {
	final := segPath(l.dir, seq)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(magic[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	syncDir(l.dir)
	w, err := os.OpenFile(final, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f, l.w, l.seq, l.size = w, bufio.NewWriter(w), seq, int64(len(magic))
	// Sweep any tmp leftovers from a crash mid-creation.
	if ents, err := os.ReadDir(l.dir); err == nil {
		for _, e := range ents {
			name := e.Name()
			if name != filepath.Base(tmp) && strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix+".tmp") {
				os.Remove(filepath.Join(l.dir, name))
			}
		}
	}
	return nil
}

// Close flushes, fsyncs and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	return l.f.Close()
}

// ---------------------------------------------------------------------------
// Reading

// ReadAll scans the log at dir read-only with full recovery semantics —
// corrupt frames skipped, torn tails ignored — and returns every intact
// record in append order. A missing directory is an empty log. It is safe to
// call while another handle is appending: at worst the final unsynced frame
// parses as torn and is left for the next read.
func ReadAll(dir string) ([]Record, Report, error) {
	var recs []Record
	rep, err := scanDir(dir, func(payload []byte) {
		var r Record
		if err := json.Unmarshal(payload, &r); err == nil {
			recs = append(recs, r)
		}
	})
	return recs, rep, err
}

// CountRecords counts intact records without decoding payloads — the cheap
// poll the retrainer's record-count trigger uses.
func CountRecords(dir string) (int64, error) {
	rep, err := scanDir(dir, nil)
	return rep.Records, err
}

func scanDir(dir string, visit func(payload []byte)) (Report, error) {
	var rep Report
	seqs, err := listSegments(dir)
	if os.IsNotExist(err) {
		return rep, nil
	}
	if err != nil {
		return rep, err
	}
	for _, seq := range seqs {
		s, err := scanSegment(segPath(dir, seq), Options{}.withDefaults().MaxRecordBytes)
		if err != nil {
			return rep, err
		}
		rep.Segments++
		rep.Records += int64(len(s.frames))
		rep.CorruptFrames += s.corrupt
		rep.TornBytes += s.tornBytes
		if s.headerBad {
			rep.SkippedSegments++
		}
		if visit != nil {
			for _, f := range s.frames {
				visit(f)
			}
		}
	}
	return rep, nil
}

// segScan is one segment's recovery result.
type segScan struct {
	frames    [][]byte // intact payloads in order
	goodEnd   int64    // offset after the last parseable frame
	corrupt   int      // CRC-failed frames skipped in place
	tornBytes int64    // unparseable tail bytes
	headerBad bool     // magic damaged: segment abandoned whole
}

// scanSegment classifies every byte of one segment. A frame whose length
// field is plausible but whose CRC fails is skipped in place (payload
// bit-flip); an implausible length or a frame extending past EOF ends the
// parse as a torn tail. Both cases leave every intact prefix record
// recovered.
func scanSegment(path string, maxRecord int) (segScan, error) {
	var s segScan
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("wal: %w", err)
	}
	if len(data) < len(magic) || [8]byte(data[:8]) != magic {
		s.headerBad = true
		s.tornBytes = int64(len(data))
		return s, nil
	}
	off := int64(len(magic))
	s.goodEnd = off
	for {
		rest := int64(len(data)) - off
		if rest == 0 {
			break
		}
		if rest < frameHeaderBytes {
			s.tornBytes += rest
			break
		}
		length := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		if length == 0 || length > int64(maxRecord) || off+frameHeaderBytes+length > int64(len(data)) {
			s.tornBytes += rest
			break
		}
		payload := data[off+frameHeaderBytes : off+frameHeaderBytes+length]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
			s.corrupt++
		} else {
			s.frames = append(s.frames, payload)
		}
		off += frameHeaderBytes + length
		s.goodEnd = off
	}
	return s, nil
}

// ---------------------------------------------------------------------------
// Segment naming

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix))
}

// listSegments returns the segment sequence numbers in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), "%d", &seq); err != nil || seq == 0 {
			continue
		}
		out = append(out, seq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// syncDir fsyncs a directory so a just-renamed segment survives power loss;
// best effort — some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
