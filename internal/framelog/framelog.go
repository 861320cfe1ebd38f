// Package framelog is the one implementation of qurk's on-disk frame
// format and of the durable append log built on it. The write-ahead
// journal (internal/wal), the cross-query answer store
// (internal/answerstore) and the observed-statistics store
// (internal/obstats) persist through Log; the spill run codec
// (internal/spill) uses the frame codec alone.
//
// A frame is a fixed 8-byte header followed by its payload:
//
//	[payload length uint32 LE][CRC-32 (IEEE) of the payload uint32 LE][payload]
//
// A crash mid-append leaves a torn tail: a partial header, a short
// payload, or a payload whose checksum no longer matches. Open replays
// every complete frame before the tear and truncates the file there,
// so a crash loses at most the record being written. Every Append is
// fsynced before it returns. The first failed write or fsync makes the
// log sticky: every later Append returns that error, because a frame
// written after a partial one would be dropped, with everything after
// it, by the next Open's tail truncation.
package framelog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// HeaderSize is the byte length of a frame header.
const HeaderSize = 8

// maxPayload bounds one Log record. Append rejects a larger payload,
// and Open reads a length prefix beyond it as a torn tail rather than
// an allocation request.
const maxPayload = 1 << 28 // 256 MiB

var (
	// ErrTorn reports a frame that cannot be complete: a partial
	// header, a zero or over-bound length, or a short payload.
	ErrTorn = errors.New("framelog: torn frame")
	// ErrChecksum reports a complete frame whose payload does not match
	// its CRC.
	ErrChecksum = errors.New("framelog: frame checksum mismatch")
	// errClosed is returned by Append after Close.
	errClosed = errors.New("framelog: log closed")
)

// Header returns the frame header for payload.
func Header(payload []byte) [HeaderSize]byte {
	var h [HeaderSize]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[4:8], crc32.ChecksumIEEE(payload))
	return h
}

// ReadFrame reads one frame from r into buf, growing it when its
// capacity is short, and returns the payload. A payload longer than
// limit is rejected before anything is allocated for it. The error is
// io.EOF at a clean end of stream, ErrTorn for a frame that cannot be
// complete, ErrChecksum for a damaged payload, or the reader's own
// error.
func ReadFrame(r io.Reader, buf []byte, limit int) ([]byte, error) {
	var h [HeaderSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: partial header", ErrTorn)
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(h[0:4])
	if n == 0 || int64(n) > int64(limit) {
		return nil, fmt.Errorf("%w: payload length %d outside (0, %d]", ErrTorn, n, limit)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: short payload", ErrTorn)
		}
		return nil, err
	}
	if crc32.ChecksumIEEE(buf) != binary.LittleEndian.Uint32(h[4:8]) {
		return nil, ErrChecksum
	}
	return buf, nil
}

// Log is a durable append-only frame file. All methods are safe for
// concurrent use.
type Log struct {
	mu  sync.Mutex
	f   *os.File
	err error // sticky: set by the first failed write or fsync, or Close
}

// Open opens the log file at path for appending, with flag added to
// the open flags (pass os.O_CREATE to create a missing file, plus
// os.O_EXCL to require a new one). It hands each complete frame's
// payload, in file order, to replay (nil replays nothing). The payload
// slice is reused across calls. Replay stops at the first torn or
// damaged frame, or at the first frame for which replay returns an
// error wrapping ErrTorn; the file is truncated there. Any other replay
// error fails Open.
func Open(path string, flag int, replay func(payload []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|flag, 0o644)
	if err != nil {
		return nil, err
	}
	if err := load(f, replay); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f}, nil
}

// load replays f's complete frames and truncates anything after them.
func load(f *os.File, replay func([]byte) error) error {
	info, err := f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	if size == 0 {
		return nil // a new log: skip the read buffer
	}
	r := bufio.NewReader(f)
	var off int64
	var buf []byte
	for off < size {
		// A frame cannot extend past the end of the file, so the bound
		// keeps a damaged length prefix from forcing a huge allocation.
		p, err := ReadFrame(r, buf, int(min(maxPayload, size-off-HeaderSize)))
		if errors.Is(err, ErrTorn) || errors.Is(err, ErrChecksum) {
			break
		}
		if err != nil {
			return err
		}
		buf = p
		if replay != nil {
			if err := replay(p); errors.Is(err, ErrTorn) {
				break
			} else if err != nil {
				return err
			}
		}
		off += HeaderSize + int64(len(p))
	}
	if off < size {
		return f.Truncate(off)
	}
	return nil
}

// Append writes payload as one frame and fsyncs it. After a failed
// write or fsync the log is sticky: this and every later Append return
// that error.
func (l *Log) Append(payload []byte) error {
	if len(payload) == 0 || len(payload) > maxPayload {
		return fmt.Errorf("framelog: record of %d bytes outside (0, %d]", len(payload), maxPayload)
	}
	h := Header(payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if _, err := l.f.Write(h[:]); err != nil {
		l.err = fmt.Errorf("framelog: write: %w", err)
	} else if _, err := l.f.Write(payload); err != nil {
		l.err = fmt.Errorf("framelog: write: %w", err)
	} else if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("framelog: fsync: %w", err)
	}
	return l.err
}

// Close releases the file; later Appends return errClosed, or the
// earlier write failure if there was one. Closing twice is a no-op.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	if l.err == nil {
		l.err = errClosed
	}
	return err
}
