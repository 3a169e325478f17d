// Package walfmt defines the on-disk format of the engine's write-ahead log:
// the sidecar file that records every structural mutation (crack splits,
// added facts, inserted entities, attribute growth) between snapshots, so a
// restart replays the suffix instead of re-paying the cracking work the
// query workload already bought.
//
// The file starts with a fixed header —
//
//	magic (8 bytes) | version (uint16 LE) | generation (uint64 LE)
//
// — where generation keys the log to the snapshot it extends: a log is only
// replayed onto the snapshot whose meta carries the same generation. After
// the header come length-prefixed records:
//
//	kind (uint8) | length (uint32 LE) | CRC32-IEEE (uint32 LE) | payload
//
// The framing mirrors internal/snapfmt's section framing, but the read
// semantics differ deliberately: a snapshot section that fails its checksum
// is an error, while a WAL that ends in a torn or bit-rotted record is the
// expected shape of a crash mid-append. The Scanner therefore never fails a
// whole log — it yields the clean prefix of records and reports where the
// trustworthy bytes end (CleanOffset), so the caller can warm up to that
// point, truncate the garbage, and keep appending.
package walfmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"vkgraph/internal/snapfmt"
)

// Typed errors are shared with the snapshot container so callers test one
// pair of sentinels (errors.Is) across both persistence formats.
var (
	// ErrCorrupt reports WAL bytes that cannot be trusted: bad magic, a
	// failed record checksum, or a record frame truncated mid-write.
	ErrCorrupt = snapfmt.ErrCorrupt
	// ErrVersion reports a structurally valid log written by an
	// incompatible format version.
	ErrVersion = snapfmt.ErrVersion
)

const (
	// Magic identifies a vkgraph write-ahead log.
	Magic = "VKGWAL\x00\x00"
	// Version is the current format version.
	Version = 2
	// HeaderLen is the fixed size of the file header.
	HeaderLen = snapfmt.MagicLen + 2 + 8
	// recHeaderLen frames every record: kind, length, checksum.
	recHeaderLen = 1 + 4 + 4
	// MaxRecordLen caps a single record payload. A corrupt length field
	// must not drive a huge allocation before the checksum can reject it.
	MaxRecordLen = 1 << 28
)

// WriteHeader writes the log header: magic, version, and the generation of
// the snapshot this log extends.
func WriteHeader(w io.Writer, gen uint64) error {
	var hdr [HeaderLen]byte
	copy(hdr[:snapfmt.MagicLen], Magic)
	binary.LittleEndian.PutUint16(hdr[snapfmt.MagicLen:snapfmt.MagicLen+2], Version)
	binary.LittleEndian.PutUint64(hdr[snapfmt.MagicLen+2:], gen)
	_, err := w.Write(hdr[:])
	return err
}

// ReadHeader validates the magic and version and returns the generation. A
// short or mismatched header is ErrCorrupt; any version but Version is
// ErrVersion.
func ReadHeader(r io.Reader) (gen uint64, err error) {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("walfmt: reading header: %w", ErrCorrupt)
	}
	if string(hdr[:snapfmt.MagicLen]) != Magic {
		return 0, fmt.Errorf("walfmt: bad magic %q: %w", hdr[:snapfmt.MagicLen], ErrCorrupt)
	}
	version := binary.LittleEndian.Uint16(hdr[snapfmt.MagicLen : snapfmt.MagicLen+2])
	if version != Version {
		return 0, fmt.Errorf("walfmt: version %d (supported: %d): %w", version, Version, ErrVersion)
	}
	return binary.LittleEndian.Uint64(hdr[snapfmt.MagicLen+2:]), nil
}

// AppendRecord frames one record onto w and returns the bytes written. The
// caller owns durability (see Writer for the fsync policies).
func AppendRecord(w io.Writer, kind uint8, payload []byte) (int, error) {
	if len(payload) > MaxRecordLen {
		return 0, fmt.Errorf("walfmt: record kind %d payload of %d bytes exceeds limit", kind, len(payload))
	}
	var hdr [recHeaderLen]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(payload))
	n, err := w.Write(hdr[:])
	if err != nil {
		return n, err
	}
	m, err := w.Write(payload)
	return n + m, err
}

// Record is one decoded WAL entry.
type Record struct {
	Kind    uint8
	Payload []byte
}

// Scanner reads a log sequentially, stopping cleanly at the first torn or
// corrupt record. After Next returns a non-EOF error, CleanOffset reports
// how many leading bytes (header plus whole verified records) are
// trustworthy; everything past it should be truncated before appending.
type Scanner struct {
	r     io.Reader
	gen   uint64
	clean int64 // bytes consumed by the header + fully verified records
}

// NewScanner reads and validates the header. Only a damaged or incompatible
// header errors here; record damage surfaces later, from Next.
func NewScanner(r io.Reader) (*Scanner, error) {
	gen, err := ReadHeader(r)
	if err != nil {
		return nil, err
	}
	return &Scanner{r: r, gen: gen, clean: HeaderLen}, nil
}

// Gen returns the generation of the snapshot this log extends.
func (s *Scanner) Gen() uint64 { return s.gen }

// CleanOffset returns the byte offset one past the last verified record —
// the length the file should be truncated to when the scan hit damage.
func (s *Scanner) CleanOffset() int64 { return s.clean }

// Next returns the next record. It returns io.EOF exactly at a clean end of
// log (zero bytes after the last record); any partial frame, oversized
// length, or checksum mismatch returns an error wrapping ErrCorrupt and
// leaves CleanOffset at the last good boundary. The returned payload is
// freshly allocated and owned by the caller.
func (s *Scanner) Next() (Record, error) {
	var hdr [recHeaderLen]byte
	if _, err := io.ReadFull(s.r, hdr[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		// A partial record header: the tail of a torn append.
		return Record{}, fmt.Errorf("walfmt: torn record header: %w", ErrCorrupt)
	}
	kind := hdr[0]
	n := binary.LittleEndian.Uint32(hdr[1:5])
	sum := binary.LittleEndian.Uint32(hdr[5:9])
	if n > MaxRecordLen {
		return Record{}, fmt.Errorf("walfmt: record kind %d claims %d bytes: %w", kind, n, ErrCorrupt)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(s.r, payload); err != nil {
		return Record{}, fmt.Errorf("walfmt: record kind %d truncated: %w", kind, ErrCorrupt)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return Record{}, fmt.Errorf("walfmt: record kind %d checksum mismatch: %w", kind, ErrCorrupt)
	}
	s.clean += recHeaderLen + int64(n)
	return Record{Kind: kind, Payload: payload}, nil
}

// SyncFile is the destination a Writer appends to: a writable stream with a
// durability barrier (*os.File in production).
type SyncFile interface {
	io.Writer
	Sync() error
}

// Writer appends framed records to a SyncFile. It is not itself
// synchronized — the engine serializes appends under its WAL mutex — and it
// holds no fsync policy: Append never syncs, and the caller calls Sync
// after every append (core.WALSyncAlways) or on its own clock
// (core.WALSyncInterval). Sync skips the barrier entirely when nothing was
// appended since the last one.
type Writer struct {
	f     SyncFile
	dirty bool
}

// NewWriter starts a log on f by writing the header for generation gen and
// syncing it, so even an empty log identifies its snapshot durably.
func NewWriter(f SyncFile, gen uint64) (*Writer, error) {
	if err := WriteHeader(f, gen); err != nil {
		return nil, err
	}
	if err := f.Sync(); err != nil {
		return nil, err
	}
	return &Writer{f: f}, nil
}

// ResumeWriter continues appending to an existing log whose header (and
// clean record prefix) are already on disk, positioned at its end.
func ResumeWriter(f SyncFile) *Writer { return &Writer{f: f} }

// Append frames one record and returns the bytes written.
func (w *Writer) Append(kind uint8, payload []byte) (int, error) {
	n, err := AppendRecord(w.f, kind, payload)
	if err == nil {
		w.dirty = true
	}
	return n, err
}

// Sync flushes appended records to stable storage; it reports whether a
// barrier was actually issued (false when the log was already clean).
func (w *Writer) Sync() (bool, error) {
	if !w.dirty {
		return false, nil
	}
	if err := w.f.Sync(); err != nil {
		return true, err
	}
	w.dirty = false
	return true, nil
}
