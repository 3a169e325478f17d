// Package snapfmt defines the on-disk container shared by every vkgraph
// snapshot: an 8-byte magic string, a little-endian uint16 format version,
// a uint16 section count, then framed sections of
//
//	kind (uint8) | length (uint32) | CRC32-IEEE (uint32) | payload
//
// The framing exists so that a torn write, a truncated copy, or bit rot is
// detected *before* any payload reaches its decoder: readers get a typed
// error (ErrCorrupt, ErrVersion) instead of a silently wrong engine, and
// callers can tell exactly which section was damaged and decide whether it
// is rebuildable.
//
// Below the checksum, every payload (and every WAL record body) is written
// with Writer and read with Reader (codec.go): fixed-width little-endian
// values, lists as a count and then their entries. Reader checks each count
// against the bytes left before anything is sized by it, so damage the
// checksum cannot see still fails with ErrCorrupt rather than a large
// allocation.
package snapfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

var (
	// ErrCorrupt reports a snapshot whose bytes cannot be trusted: bad
	// magic, a failed section checksum, or a truncated stream. Wrapped
	// errors are errors.Is-comparable to it.
	ErrCorrupt = errors.New("corrupt snapshot")
	// ErrVersion reports a structurally valid snapshot written by an
	// incompatible format version.
	ErrVersion = errors.New("unsupported snapshot version")
)

// MagicLen is the fixed magic-string length.
const MagicLen = 8

// MaxSectionLen caps a single section payload. A corrupt length field must
// not drive a multi-gigabyte allocation before the checksum gets a chance to
// reject it.
const MaxSectionLen = 1 << 30

// WriteHeader writes the container header. magic must be exactly MagicLen
// bytes.
func WriteHeader(w io.Writer, magic string, version, sections uint16) error {
	if len(magic) != MagicLen {
		return fmt.Errorf("snapfmt: magic %q is %d bytes, want %d", magic, len(magic), MagicLen)
	}
	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	var buf [4]byte
	binary.LittleEndian.PutUint16(buf[0:2], version)
	binary.LittleEndian.PutUint16(buf[2:4], sections)
	_, err := w.Write(buf[:])
	return err
}

// ReadHeader validates the magic string and the version and returns the
// section count. A magic mismatch (including a short stream) is ErrCorrupt;
// any version other than want is ErrVersion.
func ReadHeader(r io.Reader, magic string, want uint16) (sections int, err error) {
	hdr := make([]byte, MagicLen+4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, fmt.Errorf("snapfmt: reading header: %w", ErrCorrupt)
	}
	if string(hdr[:MagicLen]) != magic {
		return 0, fmt.Errorf("snapfmt: bad magic %q: %w", hdr[:MagicLen], ErrCorrupt)
	}
	if version := binary.LittleEndian.Uint16(hdr[MagicLen : MagicLen+2]); version != want {
		return 0, fmt.Errorf("snapfmt: version %d (supported %d): %w", version, want, ErrVersion)
	}
	return int(binary.LittleEndian.Uint16(hdr[MagicLen+2 : MagicLen+4])), nil
}

// WriteSection frames one payload: kind, length, checksum, bytes.
func WriteSection(w io.Writer, kind uint8, payload []byte) error {
	if len(payload) > MaxSectionLen {
		return fmt.Errorf("snapfmt: section %d payload of %d bytes exceeds limit", kind, len(payload))
	}
	var hdr [9]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadSection reads one framed section. On a checksum mismatch it still
// consumes the full frame — the stream stays positioned at the next section
// — and returns the kind with an ErrCorrupt-wrapped error, so callers can
// decide per section whether the damage is fatal or rebuildable. Short reads
// and oversized lengths are ErrCorrupt with kind as read (0 if unknown).
func ReadSection(r io.Reader) (kind uint8, payload []byte, err error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("snapfmt: reading section header: %w", ErrCorrupt)
	}
	kind = hdr[0]
	n := binary.LittleEndian.Uint32(hdr[1:5])
	sum := binary.LittleEndian.Uint32(hdr[5:9])
	if n > MaxSectionLen {
		return kind, nil, fmt.Errorf("snapfmt: section %d claims %d bytes: %w", kind, n, ErrCorrupt)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return kind, nil, fmt.Errorf("snapfmt: section %d truncated: %w", kind, ErrCorrupt)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return kind, payload, fmt.Errorf("snapfmt: section %d checksum mismatch: %w", kind, ErrCorrupt)
	}
	return kind, payload, nil
}

// WriteOne writes a container that holds one section: the header, then the
// payload framed as kind.
func WriteOne(w io.Writer, magic string, version uint16, kind uint8, payload []byte) error {
	if err := WriteHeader(w, magic, version, 1); err != nil {
		return err
	}
	return WriteSection(w, kind, payload)
}

// ReadOne reads a container written by WriteOne and returns its payload.
// Besides ReadHeader's and ReadSection's errors, a section of another kind
// is ErrCorrupt.
func ReadOne(r io.Reader, magic string, version uint16, kind uint8) ([]byte, error) {
	if _, err := ReadHeader(r, magic, version); err != nil {
		return nil, err
	}
	got, payload, err := ReadSection(r)
	if err != nil {
		return nil, err
	}
	if got != kind {
		return nil, fmt.Errorf("snapfmt: unexpected section %d: %w", got, ErrCorrupt)
	}
	return payload, nil
}
